package rdf

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseNTriplesBasic(t *testing.T) {
	in := `
# a comment
<http://ex.org/park> <http://ex.org/instanceOf> <http://ex.org/Place> .
<http://ex.org/park> <http://ex.org/label> "Delaware Park" .
<http://ex.org/park> <http://ex.org/name> "parc"@fr .
<http://ex.org/park> <http://ex.org/size> "42"^^<` + XSDInteger + `> .
_:b0 <http://ex.org/p> _:b1 .
`
	ts, err := ParseNTriples(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ParseNTriples: %v", err)
	}
	if len(ts) != 5 {
		t.Fatalf("parsed %d triples, want 5", len(ts))
	}
	if ts[0].S != NewIRI("http://ex.org/park") {
		t.Errorf("triple 0 subject = %v", ts[0].S)
	}
	if ts[1].O != NewLiteral("Delaware Park") {
		t.Errorf("triple 1 object = %v", ts[1].O)
	}
	if ts[2].O != NewLangLiteral("parc", "fr") {
		t.Errorf("triple 2 object = %v", ts[2].O)
	}
	if ts[3].O != NewTypedLiteral("42", XSDInteger) {
		t.Errorf("triple 3 object = %v", ts[3].O)
	}
	if ts[4].S != NewBlank("b0") || ts[4].O != NewBlank("b1") {
		t.Errorf("triple 4 = %v", ts[4])
	}
}

func TestParseNTriplesEscapes(t *testing.T) {
	in := `<http://e/s> <http://e/p> "line\nbreak \"quoted\" tab\tdone" .`
	ts, err := ParseNTriples(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ParseNTriples: %v", err)
	}
	want := "line\nbreak \"quoted\" tab\tdone"
	if ts[0].O.Value() != want {
		t.Fatalf("unescaped literal = %q, want %q", ts[0].O.Value(), want)
	}
}

func TestParseNTriplesErrors(t *testing.T) {
	bad := []string{
		`<http://e/s> <http://e/p> <http://e/o>`,     // missing dot
		`<http://e/s> <http://e/p "lit" .`,           // unterminated IRI
		`<http://e/s> <http://e/p> "unterminated .`,  // unterminated literal
		`<http://e/s> <http://e/p> "x"@ .`,           // empty lang
		`<http://e/s> <http://e/p> "x"^^<noend .`,    // unterminated datatype
		`<http://e/s> <http://e/p> "bad\q escape" .`, // bad escape
		`<http://e/s> %bogus <http://e/o> .`,         // bad predicate
		`_: <http://e/p> <http://e/o> .`,             // empty blank label
		`<http://e/s> <http://e/p> .`,                // missing object
	}
	for _, in := range bad {
		if _, err := ParseNTriples(strings.NewReader(in)); err == nil {
			t.Errorf("ParseNTriples(%q) succeeded, want error", in)
		}
	}
}

func TestWriteNTriplesRejectsVariables(t *testing.T) {
	err := WriteNTriples(&bytes.Buffer{}, []Triple{T(NewVar("x"), NewIRI("p"), NewIRI("o"))})
	if err == nil {
		t.Fatal("WriteNTriples accepted a variable, want error")
	}
}

// Property: serialize → parse round-trips any set of ground triples whose
// literals use the escapes we support.
func TestNTriplesRoundTrip(t *testing.T) {
	lexemes := []string{"a", "hello world", "with \"quotes\"", "tab\tand\nnewline", "Ünïcøde 東京"}
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		var ts []Triple
		for i := 0; i < int(n%20)+1; i++ {
			var o Term
			switch r.Intn(4) {
			case 0:
				o = NewIRI("http://e/o" + string(rune('a'+r.Intn(5))))
			case 1:
				o = NewLiteral(lexemes[r.Intn(len(lexemes))])
			case 2:
				o = NewLangLiteral(lexemes[r.Intn(len(lexemes)-2)], "en")
			default:
				o = NewTypedLiteral("7", XSDInteger)
			}
			ts = append(ts, T(NewIRI("http://e/s"), NewIRI("http://e/p"), o))
		}
		var buf bytes.Buffer
		if err := WriteNTriples(&buf, ts); err != nil {
			return false
		}
		got, err := ParseNTriples(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(ts) {
			return false
		}
		for i := range ts {
			if got[i] != ts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestNTriplesLiteralEscapes pins that every literal WriteNTriples emits
// reads back: the writer uses only N-Triples escapes (BEL as \u0007, not
// Go's \a; a soft hyphen as \u00AD), and printable runes pass through.
func TestNTriplesLiteralEscapes(t *testing.T) {
	for _, tc := range []struct {
		name, lex, written string
	}{
		{"soft hyphen", "soft\u00adhyphen", `"soft\u00ADhyphen"`},
		{"bell", "ring\a", `"ring\u0007"`},
		{"tab", "a\tb", `"a\tb"`},
		{"emoji", "smile 😀", `"smile 😀"`},
		{"quote", `say "hi"`, `"say \"hi\""`},
		{"backslash", `C:\dir`, `"C:\\dir"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := []Triple{T(NewIRI("http://e/s"), NewIRI("http://e/p"), NewLiteral(tc.lex))}
			var buf bytes.Buffer
			if err := WriteNTriples(&buf, in); err != nil {
				t.Fatalf("WriteNTriples: %v", err)
			}
			if want := "<http://e/s> <http://e/p> " + tc.written + " .\n"; buf.String() != want {
				t.Errorf("written %q, want %q", buf.String(), want)
			}
			got, err := ParseNTriples(&buf)
			if err != nil {
				t.Fatalf("ParseNTriples(written): %v", err)
			}
			if len(got) != 1 || got[0] != in[0] {
				t.Fatalf("round trip = %v, want %v", got, in)
			}
		})
	}
}

// TestParseNTriplesStringEscapes covers the escapes other writers emit:
// the rest of ECHAR, \' and both UCHAR widths.
func TestParseNTriplesStringEscapes(t *testing.T) {
	in := `<http://e/s> <http://e/p> "\b\f\'\u00E9\U0001F600" .`
	ts, err := ParseNTriples(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ParseNTriples: %v", err)
	}
	if want := "\b\f'é😀"; ts[0].O.Value() != want {
		t.Fatalf("unescaped literal = %q, want %q", ts[0].O.Value(), want)
	}
	for _, bad := range []string{
		`<http://e/s> <http://e/p> "\u00E" .`,          // short \u
		`<http://e/s> <http://e/p> "\uD800" .`,         // surrogate
		`<http://e/s> <http://e/p> "\U00110000" .`,     // beyond U+10FFFF
		`<http://e/s> <http://e/p> "\u+0FF" .`,         // not hex
		"<http://e/s> <http://e/p> \"bad\xff\" .",      // invalid UTF-8
		"<http://e/s\xc3> <http://e/p> <http://e/o> .", // invalid UTF-8 in an IRI
	} {
		if _, err := ParseNTriples(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseNTriples(%q) succeeded, want error", bad)
		}
	}
}

func TestWriteNTriplesRejectsInvalidUTF8(t *testing.T) {
	for _, tr := range []Triple{
		T(NewIRI("http://e/s"), NewIRI("http://e/p"), NewLiteral("bad\xff")),
		T(NewIRI("http://e/s\xc3"), NewIRI("http://e/p"), NewIRI("http://e/o")),
	} {
		if err := WriteNTriples(&bytes.Buffer{}, []Triple{tr}); err == nil {
			t.Errorf("WriteNTriples(%q) succeeded, want error", tr.S.Value()+tr.O.Value())
		}
	}
}

// FuzzNTriplesRoundTrip checks parse → write → parse: whatever the
// parser accepts, the writer must serialize so that it parses back to
// the same triples.
func FuzzNTriplesRoundTrip(f *testing.F) {
	for _, s := range []string{
		`<http://e/s> <http://e/p> "plain" .`,
		`<http://e/s> <http://e/p> "tab\tquote\"back\\slash\b\f\'" .`,
		`<http://e/s> <http://e/p> "\u00AD\u0007\U0001F600 é"@en .`,
		`_:b0 <http://e/p> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .`,
		`<http://e/s> <http://e/p> "s"^^<http://www.w3.org/2001/XMLSchema#string> .`,
		"# comment\n\n<a> <b> <c> .\n_:x <y> _:z .",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		first, err := ParseNTriples(strings.NewReader(input))
		if err != nil {
			return // rejection is fine; panics are not
		}
		var buf bytes.Buffer
		if err := WriteNTriples(&buf, first); err != nil {
			t.Fatalf("WriteNTriples of parsed triples: %v\ninput: %q", err, input)
		}
		written := buf.String()
		second, err := ParseNTriples(&buf)
		if err != nil {
			t.Fatalf("re-parse: %v\ninput:   %q\nwritten: %q", err, input, written)
		}
		if len(second) != len(first) {
			t.Fatalf("re-parse gave %d triples, want %d\nwritten: %q", len(second), len(first), written)
		}
		for i := range first {
			if second[i] != first[i] {
				t.Fatalf("triple %d: %v after round trip, want %v\nwritten: %q", i, second[i], first[i], written)
			}
		}
	})
}
