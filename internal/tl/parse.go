package tl

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"pervasive/internal/sim"
)

// Parse compiles a formula from text. Grammar (precedence low → high):
//
//	formula := until ( "->" formula )?                 (right assoc)
//	until   := or ( "U" or )*
//	or      := and ( "||" and )*
//	and     := unary ( "&&" unary )*
//	unary   := "!" unary | temporal
//	temporal:= ("F"|"G"|"O"|"H") window? unary | prim
//	window  := "[" dur "," (dur|"inf") "]"
//	prim    := IDENT | "(" formula ")" | "true" | "false"
//	dur     := NUMBER ("us"|"ms"|"s"|"m"|"h")?         (default seconds)
//
// Examples:
//
//	G(occupied -> F[0,5s] alarm)     response within 5 seconds
//	G[0,1m] !overcap                 safety over the first minute
//	hot U cooled                     untimed until
//	H[0,10s] door_closed             past: closed for the last 10 s
func Parse(src string) (Formula, error) {
	p := &tlParser{src: src}
	p.next()
	f, err := p.parseFormula()
	if err != nil {
		return nil, err
	}
	if p.tok != "" {
		return nil, p.errorf("unexpected %q after formula", p.tok)
	}
	return f, nil
}

// MustParse is Parse that panics on error.
func MustParse(src string) Formula {
	f, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return f
}

type tlParser struct {
	src string
	off int
	tok string // current token ("" = EOF)
	pos int
}

func (p *tlParser) errorf(format string, args ...any) error {
	return fmt.Errorf("tl: %s at offset %d in %q",
		fmt.Sprintf(format, args...), p.pos, p.src)
}

// isIdentStart reports whether r may begin an atom name.
func isIdentStart(r rune) bool { return unicode.IsLetter(r) || r == '_' }

// next lexes one token. The source is decoded as UTF-8, so every token is
// a substring of it and an atom renders back exactly as it was written.
func (p *tlParser) next() {
	for p.off < len(p.src) {
		r, size := utf8.DecodeRuneInString(p.src[p.off:])
		if !unicode.IsSpace(r) {
			break
		}
		p.off += size
	}
	p.pos = p.off
	if p.off >= len(p.src) {
		p.tok = ""
		return
	}
	c := p.src[p.off]
	r, size := utf8.DecodeRuneInString(p.src[p.off:])
	switch {
	case isIdentStart(r):
		j := p.off + size
		for j < len(p.src) {
			r, size := utf8.DecodeRuneInString(p.src[j:])
			if !isIdentStart(r) && !unicode.IsDigit(r) {
				break
			}
			j += size
		}
		p.tok = p.src[p.off:j]
		p.off = j
	case c >= '0' && c <= '9' || c == '.':
		j := p.off
		for j < len(p.src) && (p.src[j] >= '0' && p.src[j] <= '9' || p.src[j] == '.') {
			j++
		}
		p.tok = p.src[p.off:j]
		p.off = j
	default:
		if p.off+1 < len(p.src) {
			two := p.src[p.off : p.off+2]
			if two == "&&" || two == "||" || two == "->" {
				p.tok = two
				p.off += 2
				return
			}
		}
		p.tok = p.src[p.off : p.off+size]
		p.off += size
	}
}

func (p *tlParser) accept(tok string) bool {
	if p.tok == tok {
		p.next()
		return true
	}
	return false
}

func (p *tlParser) parseFormula() (Formula, error) {
	left, err := p.parseUntil()
	if err != nil {
		return nil, err
	}
	if p.accept("->") {
		right, err := p.parseFormula() // right associative
		if err != nil {
			return nil, err
		}
		return Implies{L: left, R: right}, nil
	}
	return left, nil
}

func (p *tlParser) parseUntil() (Formula, error) {
	left, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	for p.tok == "U" {
		p.next()
		right, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		left = Until{L: left, R: right}
	}
	return left, nil
}

func (p *tlParser) parseOr() (Formula, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept("||") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = Or{L: left, R: right}
	}
	return left, nil
}

func (p *tlParser) parseAnd() (Formula, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.accept("&&") {
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = And{L: left, R: right}
	}
	return left, nil
}

var temporalOps = map[string]bool{"F": true, "G": true, "O": true, "H": true}

func (p *tlParser) parseUnary() (Formula, error) {
	if p.accept("!") {
		f, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Not{F: f}, nil
	}
	if temporalOps[p.tok] {
		op := p.tok
		p.next()
		w := Window{Lo: 0, Hi: Unbounded}
		if p.tok == "[" {
			var err error
			w, err = p.parseWindow()
			if err != nil {
				return nil, err
			}
		}
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		switch op {
		case "F":
			return Eventually{W: w, F: inner}, nil
		case "G":
			return Always{W: w, F: inner}, nil
		case "O":
			return Once{W: w, F: inner}, nil
		default:
			return Historically{W: w, F: inner}, nil
		}
	}
	return p.parsePrim()
}

func (p *tlParser) parseWindow() (Window, error) {
	if !p.accept("[") {
		return Window{}, p.errorf("expected [")
	}
	lo, err := p.parseDur()
	if err != nil {
		return Window{}, err
	}
	if !p.accept(",") {
		return Window{}, p.errorf("expected , in window")
	}
	var hi sim.Duration
	if p.tok == "inf" {
		hi = Unbounded
		p.next()
	} else {
		hi, err = p.parseDur()
		if err != nil {
			return Window{}, err
		}
		if hi < lo {
			return Window{}, p.errorf("window upper bound below lower bound")
		}
	}
	if !p.accept("]") {
		return Window{}, p.errorf("expected ] in window")
	}
	return Window{Lo: lo, Hi: hi}, nil
}

var durUnits = map[string]sim.Duration{
	"us": sim.Microsecond, "µs": sim.Microsecond, "ms": sim.Millisecond,
	"s": sim.Second, "m": sim.Minute, "h": sim.Hour,
}

// maxDur bounds window durations (about 146,000 years) so a parsed bound
// always fits sim.Duration.
const maxDur = sim.Duration(1) << 62

// parseDur reads a number token and an optional unit. Only digit tokens
// are numbers: ParseFloat alone would also accept "inf" and "NaN".
func (p *tlParser) parseDur() (sim.Duration, error) {
	if p.tok == "" {
		return 0, p.errorf("expected duration")
	}
	v, err := strconv.ParseFloat(p.tok, 64)
	if c := p.tok[0]; err != nil || !(c >= '0' && c <= '9' || c == '.') {
		return 0, p.errorf("bad duration %q", p.tok)
	}
	p.next()
	unit := sim.Second
	if u, ok := durUnits[strings.ToLower(p.tok)]; ok {
		unit = u
		p.next()
	}
	d := v*float64(unit) + 0.5
	if d >= float64(maxDur) {
		return 0, p.errorf("duration out of range")
	}
	return sim.Duration(d), nil
}

func (p *tlParser) parsePrim() (Formula, error) {
	switch {
	case p.tok == "(":
		p.next()
		f, err := p.parseFormula()
		if err != nil {
			return nil, err
		}
		if !p.accept(")") {
			return nil, p.errorf("missing )")
		}
		return f, nil
	case p.tok == "":
		return nil, p.errorf("unexpected end of formula")
	case isIdentStart(firstRune(p.tok)):
		name := p.tok
		p.next()
		switch name {
		case "true":
			return Const(true), nil
		case "false":
			return Const(false), nil
		}
		return Atom(name), nil
	}
	return nil, p.errorf("unexpected %q", p.tok)
}

func firstRune(s string) rune {
	r, _ := utf8.DecodeRuneInString(s)
	return r
}
