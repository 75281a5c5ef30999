package uts

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Parse reads a specification file. The grammar, in EBNF:
//
//	file    = { decl } .
//	decl    = ("export" | "import") name "prog" "(" params ")" [ state ] .
//	params  = [ param { "," param } ] .
//	param   = string mode type .
//	mode    = "val" | "res" | "var" .
//	type    = "integer" | "long" | "byte" | "boolean" | "float" |
//	          "double" | "string" |
//	          "array" "[" number "]" "of" type |
//	          "record" "(" field { "," field } ")" .
//	field   = string type .
//	state   = "state" "(" field { "," field } ")" .
//
// Parameter and field names are written as double-quoted strings, as in
// the paper's example specifications. Comments run from '#' to end of
// line. Keywords are case-insensitive; procedure names are taken
// verbatim (case policy for Fortran is applied later by the Manager).
func Parse(src string) (*SpecFile, error) {
	p := &parser{lex: newLexer(src)}
	file := &SpecFile{}
	for {
		tok, err := p.peek()
		if err != nil {
			return nil, err
		}
		if tok.kind == tokEOF {
			return file, nil
		}
		decl, err := p.parseDecl()
		if err != nil {
			return nil, err
		}
		file.Procs = append(file.Procs, decl)
	}
}

// MustParse is Parse for statically known specifications; it panics on
// a syntax error.
func MustParse(src string) *SpecFile {
	f, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return f
}

// ParseProc parses a single declaration and returns it.
func ParseProc(src string) (*ProcSpec, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(f.Procs) != 1 {
		return nil, fmt.Errorf("uts: expected exactly one declaration, got %d", len(f.Procs))
	}
	return f.Procs[0], nil
}

// MustParseProc is ParseProc but panics on error.
func MustParseProc(src string) *ProcSpec {
	s, err := ParseProc(src)
	if err != nil {
		panic(err)
	}
	return s
}

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokString
	tokNumber
	tokLParen
	tokRParen
	tokLBracket
	tokRBracket
	tokComma
)

type token struct {
	kind tokKind
	text string
	line int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokString:
		return fmt.Sprintf("%q", t.text)
	default:
		return t.text
	}
}

type lexer struct {
	src  string
	pos  int
	line int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1} }

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '#':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			goto scan
		}
	}
	return token{kind: tokEOF, line: l.line}, nil

scan:
	c := l.src[l.pos]
	switch c {
	case '(':
		l.pos++
		return token{tokLParen, "(", l.line}, nil
	case ')':
		l.pos++
		return token{tokRParen, ")", l.line}, nil
	case '[':
		l.pos++
		return token{tokLBracket, "[", l.line}, nil
	case ']':
		l.pos++
		return token{tokRBracket, "]", l.line}, nil
	case ',':
		l.pos++
		return token{tokComma, ",", l.line}, nil
	case '"':
		start := l.pos + 1
		i := start
		for i < len(l.src) && l.src[i] != '"' && l.src[i] != '\n' {
			i++
		}
		if i >= len(l.src) || l.src[i] != '"' {
			return token{}, fmt.Errorf("uts: line %d: unterminated string", l.line)
		}
		l.pos = i + 1
		return token{tokString, l.src[start:i], l.line}, nil
	}
	if unicode.IsDigit(rune(c)) {
		start := l.pos
		for l.pos < len(l.src) && unicode.IsDigit(rune(l.src[l.pos])) {
			l.pos++
		}
		return token{tokNumber, l.src[start:l.pos], l.line}, nil
	}
	if isIdentStart(rune(c)) {
		start := l.pos
		for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
			l.pos++
		}
		return token{tokIdent, l.src[start:l.pos], l.line}, nil
	}
	return token{}, fmt.Errorf("uts: line %d: unexpected character %q", l.line, string(c))
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-'
}

// maxArrayLen caps a declared array length. The wire layer caps one
// message's payload at 64 MiB, so a million-element dimension is
// already beyond anything transmittable; larger declarations are more
// likely hostile spec text than real interfaces, and rejecting them
// here keeps decoders from sizing allocations off an attacker's
// number.
const maxArrayLen = 1 << 20

// maxTypeDepth caps type-constructor nesting. The parser recurses on
// "array [n] of T" and record fields; without a limit a short input
// repeating "array[1] of" overflows the stack, which in Go is a fatal
// error rather than a recoverable panic.
const maxTypeDepth = 32

// parser reads declarations one token ahead. The token peeked at is
// held by value with a flag, not behind a pointer, so reading a token
// allocates nothing.
type parser struct {
	lex    *lexer
	queued token
	ahead  bool // queued holds the next token
	depth  int
}

func (p *parser) peek() (token, error) {
	if !p.ahead {
		tok, err := p.lex.next()
		if err != nil {
			return token{}, err
		}
		p.queued, p.ahead = tok, true
	}
	return p.queued, nil
}

func (p *parser) next() (token, error) {
	tok, err := p.peek()
	if err != nil {
		return token{}, err
	}
	p.ahead = false
	return tok, nil
}

func (p *parser) expect(kind tokKind, what string) (token, error) {
	tok, err := p.next()
	if err != nil {
		return token{}, err
	}
	if tok.kind != kind {
		return token{}, fmt.Errorf("uts: line %d: expected %s, found %s", tok.line, what, tok)
	}
	return tok, nil
}

func (p *parser) expectKeyword(kw string) error {
	tok, err := p.next()
	if err != nil {
		return err
	}
	if tok.kind != tokIdent || !strings.EqualFold(tok.text, kw) {
		return fmt.Errorf("uts: line %d: expected %q, found %s", tok.line, kw, tok)
	}
	return nil
}

func (p *parser) parseDecl() (*ProcSpec, error) {
	tok, err := p.expect(tokIdent, `"export" or "import"`)
	if err != nil {
		return nil, err
	}
	var export bool
	switch strings.ToLower(tok.text) {
	case "export":
		export = true
	case "import":
		export = false
	default:
		return nil, fmt.Errorf("uts: line %d: expected \"export\" or \"import\", found %s", tok.line, tok)
	}
	name, err := p.expect(tokIdent, "procedure name")
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("prog"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen, `"("`); err != nil {
		return nil, err
	}
	spec := &ProcSpec{Name: name.text, Export: export}
	tok, err = p.peek()
	if err != nil {
		return nil, err
	}
	if tok.kind != tokRParen {
		for {
			param, err := p.parseParam()
			if err != nil {
				return nil, err
			}
			for _, prev := range spec.Params {
				if prev.Name == param.Name {
					return nil, fmt.Errorf("uts: line %d: duplicate parameter %q in %s", tok.line, param.Name, spec.Name)
				}
			}
			spec.Params = append(spec.Params, param)
			sep, err := p.next()
			if err != nil {
				return nil, err
			}
			if sep.kind == tokRParen {
				break
			}
			if sep.kind != tokComma {
				return nil, fmt.Errorf("uts: line %d: expected \",\" or \")\", found %s", sep.line, sep)
			}
		}
	} else {
		p.ahead = false // consume ')'
	}
	// Optional state clause.
	tok, err = p.peek()
	if err != nil {
		return nil, err
	}
	if tok.kind == tokIdent && strings.EqualFold(tok.text, "state") {
		p.ahead = false
		fields, err := p.parseFieldList()
		if err != nil {
			return nil, err
		}
		spec.State = fields
	}
	return spec, nil
}

func (p *parser) parseParam() (Param, error) {
	name, err := p.expect(tokString, "parameter name string")
	if err != nil {
		return Param{}, err
	}
	if name.text == "" {
		return Param{}, fmt.Errorf("uts: line %d: empty parameter name", name.line)
	}
	modeTok, err := p.expect(tokIdent, `"val", "res", or "var"`)
	if err != nil {
		return Param{}, err
	}
	var mode Mode
	switch strings.ToLower(modeTok.text) {
	case "val":
		mode = Val
	case "res":
		mode = Res
	case "var":
		mode = Var
	default:
		return Param{}, fmt.Errorf("uts: line %d: expected parameter mode, found %s", modeTok.line, modeTok)
	}
	t, err := p.parseType()
	if err != nil {
		return Param{}, err
	}
	return Param{Name: name.text, Mode: mode, Type: t}, nil
}

func (p *parser) parseType() (*Type, error) {
	p.depth++
	defer func() { p.depth-- }()
	if p.depth > maxTypeDepth {
		return nil, fmt.Errorf("uts: type nesting deeper than %d levels", maxTypeDepth)
	}
	tok, err := p.expect(tokIdent, "type")
	if err != nil {
		return nil, err
	}
	switch strings.ToLower(tok.text) {
	case "integer":
		return TInteger, nil
	case "long":
		return TLong, nil
	case "byte":
		return TByte, nil
	case "boolean":
		return TBoolean, nil
	case "float":
		return TFloat, nil
	case "double":
		return TDouble, nil
	case "string":
		return TString, nil
	case "array":
		if _, err := p.expect(tokLBracket, `"["`); err != nil {
			return nil, err
		}
		numTok, err := p.expect(tokNumber, "array length")
		if err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(numTok.text)
		if err != nil || n <= 0 || n > maxArrayLen {
			return nil, fmt.Errorf("uts: line %d: invalid array length %q (must be 1..%d)", numTok.line, numTok.text, maxArrayLen)
		}
		if _, err := p.expect(tokRBracket, `"]"`); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("of"); err != nil {
			return nil, err
		}
		elem, err := p.parseType()
		if err != nil {
			return nil, err
		}
		return ArrayOf(n, elem), nil
	case "record":
		fields, err := p.parseFieldList()
		if err != nil {
			return nil, err
		}
		return RecordOf(fields...)
	}
	return nil, fmt.Errorf("uts: line %d: unknown type %q", tok.line, tok.text)
}

func (p *parser) parseFieldList() ([]Field, error) {
	if _, err := p.expect(tokLParen, `"("`); err != nil {
		return nil, err
	}
	var fields []Field
	for {
		name, err := p.expect(tokString, "field name string")
		if err != nil {
			return nil, err
		}
		t, err := p.parseType()
		if err != nil {
			return nil, err
		}
		fields = append(fields, Field{Name: name.text, Type: t})
		sep, err := p.next()
		if err != nil {
			return nil, err
		}
		if sep.kind == tokRParen {
			return fields, nil
		}
		if sep.kind != tokComma {
			return nil, fmt.Errorf("uts: line %d: expected \",\" or \")\", found %s", sep.line, sep)
		}
	}
}
