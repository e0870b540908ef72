package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// WriteNTriples serializes the triples to w in N-Triples syntax, one
// statement per line, such that ParseNTriples reads back exactly the same
// triples. Variables are rejected because N-Triples is a data format, and
// text that is not valid UTF-8 because N-Triples is UTF-8.
func WriteNTriples(w io.Writer, triples []Triple) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for _, t := range triples {
		if !t.IsGround() {
			return fmt.Errorf("rdf: cannot serialize non-ground triple %v", t)
		}
		line = appendNTTerm(line[:0], t.S)
		line = append(line, ' ')
		line = appendNTTerm(line, t.P)
		line = append(line, ' ')
		line = appendNTTerm(line, t.O)
		line = append(line, " .\n"...)
		if !utf8.Valid(line) {
			return fmt.Errorf("rdf: cannot serialize triple %v: not valid UTF-8", t)
		}
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// appendNTTerm appends a ground term in N-Triples syntax. Unlike
// Term.String, a literal uses only N-Triples string escapes (the ECHAR
// set, then \uXXXX or \UXXXXXXXX for any other non-printing rune) and
// keeps an explicit xsd:string datatype, so the parser restores the term
// exactly.
func appendNTTerm(buf []byte, t Term) []byte {
	switch t.kind {
	case KindIRI:
		buf = append(buf, '<')
		buf = append(buf, t.value...)
		return append(buf, '>')
	case KindBlank:
		buf = append(buf, "_:"...)
		return append(buf, t.value...)
	}
	buf = append(buf, '"')
	for i, r := range t.value {
		switch r {
		case utf8.RuneError:
			// Keep an invalid byte as it is, for WriteNTriples to reject;
			// a genuine U+FFFD is printable and written as itself.
			if !strings.HasPrefix(t.value[i:], "\uFFFD") {
				buf = append(buf, t.value[i])
				continue
			}
			buf = utf8.AppendRune(buf, r)
		case '\t':
			buf = append(buf, `\t`...)
		case '\b':
			buf = append(buf, `\b`...)
		case '\n':
			buf = append(buf, `\n`...)
		case '\r':
			buf = append(buf, `\r`...)
		case '\f':
			buf = append(buf, `\f`...)
		case '"':
			buf = append(buf, `\"`...)
		case '\\':
			buf = append(buf, `\\`...)
		default:
			switch {
			case strconv.IsPrint(r):
				buf = utf8.AppendRune(buf, r)
			case r <= 0xFFFF:
				buf = fmt.Appendf(buf, `\u%04X`, r)
			default:
				buf = fmt.Appendf(buf, `\U%08X`, r)
			}
		}
	}
	buf = append(buf, '"')
	if t.lang != "" {
		buf = append(buf, '@')
		return append(buf, t.lang...)
	}
	if t.datatype != "" {
		buf = append(buf, "^^<"...)
		buf = append(buf, t.datatype...)
		buf = append(buf, '>')
	}
	return buf
}

// ParseNTriples reads N-Triples statements from r. Lines that are empty or
// start with '#' are skipped; a line that is not valid UTF-8 is an error.
// The supported grammar covers IRIs, plain, language-tagged and datatyped
// literals with the N-Triples string escapes, and blank nodes.
func ParseNTriples(r io.Reader) ([]Triple, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var out []Triple
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !utf8.ValidString(line) {
			return nil, fmt.Errorf("rdf: line %d: not valid UTF-8", lineNo)
		}
		t, err := parseNTLine(line)
		if err != nil {
			return nil, fmt.Errorf("rdf: line %d: %w", lineNo, err)
		}
		out = append(out, t)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("rdf: reading n-triples: %w", err)
	}
	return out, nil
}

func parseNTLine(line string) (Triple, error) {
	p := &ntParser{in: line}
	s, err := p.term()
	if err != nil {
		return Triple{}, err
	}
	pr, err := p.term()
	if err != nil {
		return Triple{}, err
	}
	o, err := p.term()
	if err != nil {
		return Triple{}, err
	}
	p.skipSpace()
	if !p.eat('.') {
		return Triple{}, fmt.Errorf("missing terminating '.' in %q", line)
	}
	return T(s, pr, o), nil
}

type ntParser struct {
	in  string
	pos int
}

func (p *ntParser) skipSpace() {
	for p.pos < len(p.in) && (p.in[p.pos] == ' ' || p.in[p.pos] == '\t') {
		p.pos++
	}
}

func (p *ntParser) eat(c byte) bool {
	if p.pos < len(p.in) && p.in[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

func (p *ntParser) term() (Term, error) {
	p.skipSpace()
	if p.pos >= len(p.in) {
		return Term{}, fmt.Errorf("unexpected end of statement")
	}
	switch p.in[p.pos] {
	case '<':
		end := strings.IndexByte(p.in[p.pos:], '>')
		if end < 0 {
			return Term{}, fmt.Errorf("unterminated IRI")
		}
		iri := p.in[p.pos+1 : p.pos+end]
		p.pos += end + 1
		return NewIRI(iri), nil
	case '"':
		return p.literal()
	case '_':
		if p.pos+1 >= len(p.in) || p.in[p.pos+1] != ':' {
			return Term{}, fmt.Errorf("malformed blank node")
		}
		start := p.pos + 2
		end := start
		for end < len(p.in) && p.in[end] != ' ' && p.in[end] != '\t' {
			end++
		}
		label := p.in[start:end]
		if label == "" {
			return Term{}, fmt.Errorf("empty blank node label")
		}
		p.pos = end
		return NewBlank(label), nil
	default:
		return Term{}, fmt.Errorf("unexpected character %q", p.in[p.pos])
	}
}

func (p *ntParser) literal() (Term, error) {
	// p.in[p.pos] == '"'
	var b strings.Builder
	i := p.pos + 1
	for i < len(p.in) {
		c := p.in[i]
		if c == '\\' {
			if i+1 >= len(p.in) {
				return Term{}, fmt.Errorf("dangling escape in literal")
			}
			switch e := p.in[i+1]; e {
			case 't':
				b.WriteByte('\t')
			case 'b':
				b.WriteByte('\b')
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case 'f':
				b.WriteByte('\f')
			case '"', '\'', '\\':
				b.WriteByte(e)
			case 'u', 'U':
				n := 4
				if e == 'U' {
					n = 8
				}
				if i+2+n > len(p.in) {
					return Term{}, fmt.Errorf("short \\%c escape in literal", e)
				}
				hex := p.in[i+2 : i+2+n]
				v, err := strconv.ParseUint(hex, 16, 32)
				if err != nil || !utf8.ValidRune(rune(v)) {
					return Term{}, fmt.Errorf("bad \\%c%s escape in literal", e, hex)
				}
				b.WriteRune(rune(v))
				i += n
			default:
				return Term{}, fmt.Errorf("unsupported escape \\%c", e)
			}
			i += 2
			continue
		}
		if c == '"' {
			break
		}
		b.WriteByte(c)
		i++
	}
	if i >= len(p.in) {
		return Term{}, fmt.Errorf("unterminated literal")
	}
	p.pos = i + 1 // past closing quote
	lex := b.String()
	// Optional language tag or datatype.
	if p.pos < len(p.in) && p.in[p.pos] == '@' {
		start := p.pos + 1
		end := start
		for end < len(p.in) && p.in[end] != ' ' && p.in[end] != '\t' {
			end++
		}
		lang := p.in[start:end]
		if lang == "" {
			return Term{}, fmt.Errorf("empty language tag")
		}
		p.pos = end
		return NewLangLiteral(lex, lang), nil
	}
	if strings.HasPrefix(p.in[p.pos:], "^^<") {
		rest := p.in[p.pos+3:]
		end := strings.IndexByte(rest, '>')
		if end < 0 {
			return Term{}, fmt.Errorf("unterminated datatype IRI")
		}
		dt := rest[:end]
		p.pos += 3 + end + 1
		return NewTypedLiteral(lex, dt), nil
	}
	return NewLiteral(lex), nil
}
