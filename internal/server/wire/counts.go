package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
)

// The three count-array answers of the analytics endpoints carry their
// own JSON codec, because a density series is the largest body a
// dashboard polls for and reflection-based encoding/json spends most of
// its time on the counts. AppendJSON writes the bytes json.Encoder
// writes for the plain struct, and UnmarshalJSON reads that form in one
// pass. Any other input goes to encoding/json on the plain struct, so
// every input decodes to the value, or fails with the error, that it
// would without these methods.

// densityJSON, seriesJSON and exposureJSON are the answers without their
// methods. encoding/json on them is the reference the codec matches, and
// the fallback of its parser.
type (
	densityJSON  DensityResponse
	seriesJSON   DensitySeriesResponse
	exposureJSON ExposureResponse
)

// AppendJSON appends the JSON encoding of r and a newline to dst: the
// bytes json.Encoder writes for it.
func (r DensityResponse) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"t":`...)
	dst = strconv.AppendInt(dst, int64(r.T), 10)
	dst = append(dst, `,"counts":`...)
	dst = appendInts(dst, r.Counts)
	dst = append(dst, `,"gen":`...)
	dst = strconv.AppendUint(dst, r.Gen, 10)
	return append(dst, "}\n"...)
}

// MarshalJSON implements json.Marshaler with AppendJSON's bytes, less
// the newline.
func (r DensityResponse) MarshalJSON() ([]byte, error) {
	b := r.AppendJSON(nil)
	return b[:len(b)-1], nil
}

// UnmarshalJSON implements json.Unmarshaler: it reads the form
// AppendJSON writes in one pass and hands any other input to
// encoding/json.
func (r *DensityResponse) UnmarshalJSON(data []byte) error {
	if v, ok := parseDensity(data); ok {
		*r = v
		return nil
	}
	return json.Unmarshal(data, (*densityJSON)(r))
}

// parseDensity reads the form DensityResponse.AppendJSON writes; ok is
// false for any other input.
func parseDensity(data []byte) (v DensityResponse, ok bool) {
	p := countsParser{data: data}
	if !p.lit(`{"t":`) {
		return v, false
	}
	if v.T, ok = p.int(); !ok || !p.lit(`,"counts":`) {
		return v, false
	}
	if v.Counts, ok = p.ints(); !ok || !p.lit(`,"gen":`) {
		return v, false
	}
	v.Gen, ok = p.uint()
	return v, ok && p.end()
}

// AppendJSON appends the JSON encoding of r and a newline to dst: the
// bytes json.Encoder writes for it.
func (r DensitySeriesResponse) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"t0":`...)
	dst = strconv.AppendInt(dst, int64(r.T0), 10)
	dst = append(dst, `,"t1":`...)
	dst = strconv.AppendInt(dst, int64(r.T1), 10)
	dst = append(dst, `,"series":`...)
	if r.Series == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, row := range r.Series {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendInts(dst, row)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"epoch":`...)
	dst = strconv.AppendUint(dst, r.Epoch, 10)
	return append(dst, "}\n"...)
}

// MarshalJSON implements json.Marshaler with AppendJSON's bytes, less
// the newline.
func (r DensitySeriesResponse) MarshalJSON() ([]byte, error) {
	b := r.AppendJSON(nil)
	return b[:len(b)-1], nil
}

// UnmarshalJSON implements json.Unmarshaler: it reads the form
// AppendJSON writes in one pass, with every row in one backing array,
// and hands any other input to encoding/json.
func (r *DensitySeriesResponse) UnmarshalJSON(data []byte) error {
	if v, ok := parseSeries(data); ok {
		*r = v
		return nil
	}
	return json.Unmarshal(data, (*seriesJSON)(r))
}

// parseSeries reads the form DensitySeriesResponse.AppendJSON writes; ok
// is false for any other input.
func parseSeries(data []byte) (v DensitySeriesResponse, ok bool) {
	p := countsParser{data: data}
	if !p.lit(`{"t0":`) {
		return v, false
	}
	if v.T0, ok = p.int(); !ok || !p.lit(`,"t1":`) {
		return v, false
	}
	if v.T1, ok = p.int(); !ok || !p.lit(`,"series":`) {
		return v, false
	}
	if !p.lit("null") {
		if !p.char('[') {
			return v, false
		}
		// Every row but a null one opens with a bracket.
		v.Series = make([][]int, 0, bytes.Count(data[p.pos:], []byte{'['}))
		for !p.char(']') {
			if len(v.Series) > 0 && !p.char(',') {
				return v, false
			}
			row, ok := p.ints()
			if !ok {
				return v, false
			}
			v.Series = append(v.Series, row)
		}
	}
	if !p.lit(`,"epoch":`) {
		return v, false
	}
	v.Epoch, ok = p.uint()
	return v, ok && p.end()
}

// AppendJSON appends the JSON encoding of r and a newline to dst: the
// bytes json.Encoder writes for it.
func (r ExposureResponse) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"t0":`...)
	dst = strconv.AppendInt(dst, int64(r.T0), 10)
	dst = append(dst, `,"t1":`...)
	dst = strconv.AppendInt(dst, int64(r.T1), 10)
	dst = append(dst, `,"exposure":`...)
	dst = appendInts(dst, r.Exposure)
	dst = append(dst, `,"epoch":`...)
	dst = strconv.AppendUint(dst, r.Epoch, 10)
	return append(dst, "}\n"...)
}

// MarshalJSON implements json.Marshaler with AppendJSON's bytes, less
// the newline.
func (r ExposureResponse) MarshalJSON() ([]byte, error) {
	b := r.AppendJSON(nil)
	return b[:len(b)-1], nil
}

// UnmarshalJSON implements json.Unmarshaler: it reads the form
// AppendJSON writes in one pass and hands any other input to
// encoding/json.
func (r *ExposureResponse) UnmarshalJSON(data []byte) error {
	if v, ok := parseExposure(data); ok {
		*r = v
		return nil
	}
	return json.Unmarshal(data, (*exposureJSON)(r))
}

// parseExposure reads the form ExposureResponse.AppendJSON writes; ok is
// false for any other input.
func parseExposure(data []byte) (v ExposureResponse, ok bool) {
	p := countsParser{data: data}
	if !p.lit(`{"t0":`) {
		return v, false
	}
	if v.T0, ok = p.int(); !ok || !p.lit(`,"t1":`) {
		return v, false
	}
	if v.T1, ok = p.int(); !ok || !p.lit(`,"exposure":`) {
		return v, false
	}
	if v.Exposure, ok = p.ints(); !ok || !p.lit(`,"epoch":`) {
		return v, false
	}
	v.Epoch, ok = p.uint()
	return v, ok && p.end()
}

// appendInts appends xs as json.Encoder writes an []int: null when nil.
func appendInts(dst []byte, xs []int) []byte {
	if xs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return append(dst, ']')
}

// countsParser reads the form the AppendJSON methods write from data,
// from pos on. Its arrays of ints share buf.
type countsParser struct {
	data []byte
	pos  int
	buf  []int
}

// lit consumes s if the input continues with it.
func (p *countsParser) lit(s string) bool {
	if len(p.data)-p.pos < len(s) || string(p.data[p.pos:p.pos+len(s)]) != s {
		return false
	}
	p.pos += len(s)
	return true
}

// char consumes c if the input continues with it.
func (p *countsParser) char(c byte) bool {
	if p.pos < len(p.data) && p.data[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

// uint consumes a non-negative integer written as encoding/json writes
// one, decimal digits with no leading zero, and refuses one past
// math.MaxUint64.
func (p *countsParser) uint() (uint64, bool) {
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
func (p *countsParser) int() (int, bool) {
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

// ints consumes an array of ints, or null. The elements go to the end of
// buf, and the array comes back as that stretch of it with the capacity
// clipped, so that an append to one array never writes over the next;
// null comes back as nil, [] as an empty slice.
func (p *countsParser) ints() ([]int, bool) {
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
func (p *countsParser) end() bool {
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
