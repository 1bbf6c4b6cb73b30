package wire

import (
	"bytes"
	"math"
	"strconv"
)

// jsonParser reads the compact forms the codecs of this package write
// (the AppendJSON methods) from data, from pos on. Each method consumes
// one token or value and reports false, for the caller to fall back to
// encoding/json, on anything those codecs do not write. Its arrays of
// ints share buf.
type jsonParser struct {
	data []byte
	pos  int
	buf  []int
}

// lit consumes s if the input continues with it.
func (p *jsonParser) lit(s string) bool {
	if len(p.data)-p.pos < len(s) || string(p.data[p.pos:p.pos+len(s)]) != s {
		return false
	}
	p.pos += len(s)
	return true
}

// char consumes c if the input continues with it.
func (p *jsonParser) char(c byte) bool {
	if p.pos < len(p.data) && p.data[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

// uint consumes a non-negative integer written as encoding/json writes
// one, decimal digits with no leading zero, and refuses one past
// math.MaxUint64.
func (p *jsonParser) uint() (uint64, bool) {
	const cutoff = math.MaxUint64 / 10
	start := p.pos
	var x uint64
	for p.pos < len(p.data) && '0' <= p.data[p.pos] && p.data[p.pos] <= '9' {
		d := uint64(p.data[p.pos] - '0')
		if x > cutoff || x == cutoff && d > math.MaxUint64%10 {
			return 0, false
		}
		x = 10*x + d
		p.pos++
	}
	if p.pos == start || p.data[start] == '0' && p.pos-start > 1 {
		return 0, false
	}
	return x, true
}

// int consumes an integer written as encoding/json writes one: uint's
// form with an optional minus sign. It refuses -0 and anything out of
// int's range.
func (p *jsonParser) int() (int, bool) {
	neg := p.char('-')
	u, ok := p.uint()
	switch {
	case !ok:
		return 0, false
	case !neg && u <= math.MaxInt:
		return int(u), true
	case neg && u > 0 && u-1 <= math.MaxInt:
		return -int(u-1) - 1, true
	}
	return 0, false
}

// digits consumes a run of decimal digits and reports whether it was
// not empty.
func (p *jsonParser) digits() bool {
	start := p.pos
	for p.pos < len(p.data) && '0' <= p.data[p.pos] && p.data[p.pos] <= '9' {
		p.pos++
	}
	return p.pos > start
}

// float consumes a number in JSON's grammar and converts it with
// strconv.ParseFloat, as encoding/json does for a float64 field. It
// refuses what either refuses: a plus sign, a bare fraction or
// exponent (.5, 1.), a leading zero (01), hex, Inf and NaN, and values
// out of float64's range.
func (p *jsonParser) float() (float64, bool) {
	start := p.pos
	p.char('-')
	if !p.char('0') && !p.digits() {
		return 0, false
	}
	if p.char('.') && !p.digits() {
		return 0, false
	}
	if p.char('e') || p.char('E') {
		if !p.char('-') {
			p.char('+')
		}
		if !p.digits() {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(string(p.data[start:p.pos]), 64)
	return f, err == nil
}

// ints consumes an array of ints, or null. The elements go to the end of
// buf, and the array comes back as that stretch of it with the capacity
// clipped, so that an append to one array never writes over the next;
// null comes back as nil, [] as an empty slice.
func (p *jsonParser) ints() ([]int, bool) {
	if p.lit("null") {
		return nil, true
	}
	if !p.char('[') {
		return nil, false
	}
	if p.buf == nil {
		// Room for every int left in the input: each but the first
		// follows a comma, its own or its row's.
		p.buf = make([]int, 0, bytes.Count(p.data[p.pos:], []byte{','})+1)
	}
	start := len(p.buf)
	for !p.char(']') {
		if len(p.buf) > start && !p.char(',') {
			return nil, false
		}
		x, ok := p.int()
		if !ok {
			return nil, false
		}
		p.buf = append(p.buf, x)
	}
	return p.buf[start:len(p.buf):len(p.buf)], true
}

// end consumes the closing brace and reports whether nothing but JSON
// whitespace follows it.
func (p *jsonParser) end() bool {
	if !p.char('}') {
		return false
	}
	for ; p.pos < len(p.data); p.pos++ {
		switch p.data[p.pos] {
		case ' ', '\t', '\n', '\r':
		default:
			return false
		}
	}
	return true
}
