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
