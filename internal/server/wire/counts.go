package wire

import (
	"bytes"
	"encoding/json"
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
	p := jsonParser{data: data}
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
	p := jsonParser{data: data}
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
	p := jsonParser{data: data}
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
