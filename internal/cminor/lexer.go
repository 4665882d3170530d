package cminor

import (
	"strconv"
	"strings"
)

// Lexer tokenizes cMinor source text. It understands the `#pragma
// independent p q` directive, which it surfaces as TokKwPragma followed by
// the identifiers, so the parser can attach the independence annotation to
// the enclosing scope (paper Section 7.1).
type Lexer struct {
	src  string
	off  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (lx *Lexer) pos() Pos { return Pos{Line: lx.line, Col: lx.col} }

func (lx *Lexer) peek() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *Lexer) peek2() byte {
	if lx.off+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+1]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}
func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}
func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) }

// skipSpace consumes whitespace and comments. It returns an error for an
// unterminated block comment.
func (lx *Lexer) skipSpace() error {
	for lx.off < len(lx.src) {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.peek2() == '/':
			for lx.off < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peek2() == '*':
			start := lx.pos()
			lx.advance()
			lx.advance()
			for {
				if lx.off >= len(lx.src) {
					return errf(start, "unterminated block comment")
				}
				if lx.peek() == '*' && lx.peek2() == '/' {
					lx.advance()
					lx.advance()
					break
				}
				lx.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

// Next returns the next token.
func (lx *Lexer) Next() (Token, error) {
	if err := lx.skipSpace(); err != nil {
		return Token{}, err
	}
	pos := lx.pos()
	if lx.off >= len(lx.src) {
		return Token{Kind: TokEOF, Pos: pos}, nil
	}
	c := lx.peek()
	switch {
	case isIdentStart(c):
		start := lx.off
		for lx.off < len(lx.src) && isIdentCont(lx.peek()) {
			lx.advance()
		}
		text := lx.src[start:lx.off]
		if kw, ok := keywords[text]; ok {
			return Token{Kind: kw, Pos: pos, Text: text}, nil
		}
		return Token{Kind: TokIdent, Pos: pos, Text: text}, nil

	case isDigit(c):
		return lx.lexNumber(pos)

	case c == '\'':
		return lx.lexChar(pos)

	case c == '"':
		return lx.lexString(pos)

	case c == '#':
		// Only `#pragma` is recognized; other directives are an error so
		// users do not silently lose preprocessor semantics.
		start := lx.off
		lx.advance()
		for lx.off < len(lx.src) && isIdentCont(lx.peek()) {
			lx.advance()
		}
		word := lx.src[start:lx.off]
		if word != "#pragma" {
			return Token{}, errf(pos, "unsupported directive %q", word)
		}
		return Token{Kind: TokKwPragma, Pos: pos, Text: word}, nil
	}
	return lx.lexOperator(pos)
}

func (lx *Lexer) lexNumber(pos Pos) (Token, error) {
	start := lx.off
	base := 10
	if lx.peek() == '0' && (lx.peek2() == 'x' || lx.peek2() == 'X') {
		base = 16
		lx.advance()
		lx.advance()
		for lx.off < len(lx.src) && isHexDigit(lx.peek()) {
			lx.advance()
		}
	} else {
		for lx.off < len(lx.src) && isDigit(lx.peek()) {
			lx.advance()
		}
	}
	text := lx.src[start:lx.off]
	// Accept and ignore integer suffixes (u, U, l, L combinations).
	for lx.off < len(lx.src) {
		switch lx.peek() {
		case 'u', 'U', 'l', 'L':
			lx.advance()
		default:
			goto done
		}
	}
done:
	digits := text
	if base == 16 {
		digits = text[2:]
		if digits == "" {
			return Token{}, errf(pos, "malformed hex literal %q", text)
		}
	}
	v, err := strconv.ParseUint(digits, base, 64)
	if err != nil {
		return Token{}, errf(pos, "malformed number %q: %v", text, err)
	}
	return Token{Kind: TokNumber, Pos: pos, Text: text, Val: int64(v)}, nil
}

func (lx *Lexer) lexEscape(pos Pos) (byte, error) {
	if lx.off >= len(lx.src) {
		return 0, errf(pos, "unterminated escape sequence")
	}
	c := lx.advance()
	switch c {
	case 'n':
		return '\n', nil
	case 't':
		return '\t', nil
	case 'r':
		return '\r', nil
	case '0':
		return 0, nil
	case '\\', '\'', '"':
		return c, nil
	}
	return 0, errf(pos, "unsupported escape \\%c", c)
}

func (lx *Lexer) lexChar(pos Pos) (Token, error) {
	lx.advance() // opening quote
	if lx.off >= len(lx.src) {
		return Token{}, errf(pos, "unterminated char literal")
	}
	var v byte
	c := lx.advance()
	if c == '\\' {
		e, err := lx.lexEscape(pos)
		if err != nil {
			return Token{}, err
		}
		v = e
	} else {
		v = c
	}
	if lx.off >= len(lx.src) || lx.advance() != '\'' {
		return Token{}, errf(pos, "unterminated char literal")
	}
	return Token{Kind: TokChar, Pos: pos, Text: string(v), Val: int64(v)}, nil
}

func (lx *Lexer) lexString(pos Pos) (Token, error) {
	lx.advance() // opening quote
	var sb strings.Builder
	for {
		if lx.off >= len(lx.src) {
			return Token{}, errf(pos, "unterminated string literal")
		}
		c := lx.advance()
		if c == '"' {
			break
		}
		if c == '\\' {
			e, err := lx.lexEscape(pos)
			if err != nil {
				return Token{}, err
			}
			sb.WriteByte(e)
			continue
		}
		sb.WriteByte(c)
	}
	return Token{Kind: TokString, Pos: pos, Text: sb.String()}, nil
}

// operator tables ordered longest-first so maximal munch is trivial.
var operators = []struct {
	text string
	kind TokKind
}{
	{"<<=", TokShlEq}, {">>=", TokShrEq},
	{"==", TokEq}, {"!=", TokNe}, {"<=", TokLe}, {">=", TokGe},
	{"<<", TokShl}, {">>", TokShr}, {"&&", TokAndAnd}, {"||", TokOrOr},
	{"+=", TokPlusEq}, {"-=", TokMinusEq}, {"*=", TokStarEq},
	{"/=", TokSlashEq}, {"%=", TokPercentEq},
	{"&=", TokAndEq}, {"|=", TokOrEq}, {"^=", TokXorEq},
	{"++", TokPlusPlus}, {"--", TokMinusMinus},
	{"(", TokLParen}, {")", TokRParen}, {"{", TokLBrace}, {"}", TokRBrace},
	{"[", TokLBracket}, {"]", TokRBracket}, {";", TokSemi}, {",", TokComma},
	{"?", TokQuestion}, {":", TokColon}, {"=", TokAssign},
	{"<", TokLt}, {">", TokGt}, {"+", TokPlus}, {"-", TokMinus},
	{"*", TokStar}, {"/", TokSlash}, {"%", TokPercent},
	{"&", TokAnd}, {"|", TokOr}, {"^", TokXor},
	{"!", TokNot}, {"~", TokTilde},
}

// operatorsByByte lists, per first byte, the indexes in operators of the
// spellings that start with it, longest first, so the lexer tries at most
// four spellings instead of the whole table.
var operatorsByByte [256]struct {
	n   uint8
	idx [4]uint8
}

func init() {
	for i, op := range operators {
		e := &operatorsByByte[op.text[0]]
		e.idx[e.n] = uint8(i)
		e.n++
	}
}

func (lx *Lexer) lexOperator(pos Pos) (Token, error) {
	rest := lx.src[lx.off:]
	e := &operatorsByByte[rest[0]]
	for _, i := range e.idx[:e.n] {
		op := operators[i]
		if strings.HasPrefix(rest, op.text) {
			for range op.text {
				lx.advance()
			}
			return Token{Kind: op.kind, Pos: pos, Text: op.text}, nil
		}
	}
	return Token{}, errf(pos, "unexpected character %q", lx.peek())
}

// Tokenize lexes the whole input, returning all tokens including a final
// EOF token.
func Tokenize(src string) ([]Token, error) {
	lx := NewLexer(src)
	// C source averages 2.4 to 3.4 bytes per token (the workload suite
	// and generated programs), so half the length rarely has to grow.
	toks := make([]Token, 0, len(src)/2+1)
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}
