package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// countsCodec drives one count answer's codec against encoding/json on
// its method-less alias, the reference.
type countsCodec[T any] struct {
	name       string
	parse      func([]byte) (T, bool) // the one-pass parser alone, without the fallback
	unmarshal  func(*T, []byte) error
	appendJSON func(T, []byte) []byte
	marshal    func(T) ([]byte, error)
	plain      func(*T) any
}

var (
	densityCodec = countsCodec[DensityResponse]{"density", parseDensity,
		(*DensityResponse).UnmarshalJSON, DensityResponse.AppendJSON, DensityResponse.MarshalJSON,
		func(r *DensityResponse) any { return (*densityJSON)(r) }}
	seriesCodec = countsCodec[DensitySeriesResponse]{"series", parseSeries,
		(*DensitySeriesResponse).UnmarshalJSON, DensitySeriesResponse.AppendJSON, DensitySeriesResponse.MarshalJSON,
		func(r *DensitySeriesResponse) any { return (*seriesJSON)(r) }}
	exposureCodec = countsCodec[ExposureResponse]{"exposure", parseExposure,
		(*ExposureResponse).UnmarshalJSON, ExposureResponse.AppendJSON, ExposureResponse.MarshalJSON,
		func(r *ExposureResponse) any { return (*exposureJSON)(r) }}
)

// check decodes data from a zero value with UnmarshalJSON and with the
// reference, which must agree: the same value, or an error from both.
// A value the reference decodes must encode to the reference encoder's
// bytes, under AppendJSON and (less the newline) MarshalJSON, and the
// one-pass parser must read those bytes back to it without falling back.
func (c countsCodec[T]) check(t *testing.T, data []byte) {
	t.Helper()
	var got, ref T
	err := c.unmarshal(&got, data)
	refErr := json.Unmarshal(data, c.plain(&ref))
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%s: %q: UnmarshalJSON error %v, reference error %v", c.name, data, err, refErr)
	}
	if refErr != nil {
		return
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("%s: %q: UnmarshalJSON gives %#v, the reference %#v", c.name, data, got, ref)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(c.plain(&ref)); err != nil {
		t.Fatal(err)
	}
	enc := c.appendJSON(ref, nil)
	if !bytes.Equal(enc, want.Bytes()) {
		t.Fatalf("%s: AppendJSON of %#v:\n got %q\nwant %q", c.name, ref, enc, want.Bytes())
	}
	if m, err := c.marshal(ref); err != nil || !bytes.Equal(m, bytes.TrimSuffix(want.Bytes(), []byte("\n"))) {
		t.Fatalf("%s: MarshalJSON of %#v: %q, %v; want %q", c.name, ref, m, err, want.Bytes())
	}
	back, ok := c.parse(enc)
	if !ok {
		t.Fatalf("%s: the one-pass parser falls back on AppendJSON's %q", c.name, enc)
	}
	if !reflect.DeepEqual(back, ref) {
		t.Fatalf("%s: %q parses to %#v, want %#v", c.name, enc, back, ref)
	}
}

// FuzzCountsJSON checks the three count answers' codec against
// encoding/json on every input; see countsCodec.check.
func FuzzCountsJSON(f *testing.F) {
	for _, seed := range []string{
		`{"t":3,"counts":[1,0,22],"gen":7}`,
		`{"t0":0,"t1":2,"series":[[1,2],[3,4],[5,6]],"epoch":5}` + "\n",
		`{"t0":1,"t1":3,"exposure":[0,4,2],"epoch":9}`,
		`null`, `{}`, `[]`, ``,
		// whitespace and keys in another order
		` {"t": 3, "counts": [1, 0], "gen": 7}`,
		`{"t0":0,"t1":1,"series":[ [1] ],"epoch":5}`,
		"{\"t0\":1,\"t1\":3,\"exposure\":[0],\"epoch\":9}\t\r\n ",
		`{"gen":7,"t":3,"counts":[1]}`,
		`{"series":[[1]],"t0":0,"t1":0,"epoch":1}`,
		// duplicate, unknown and differently cased keys
		`{"t":3,"t":4,"counts":[1],"counts":[2,3],"gen":7}`,
		`{"t0":1,"t1":3,"exposure":[1],"epoch":9,"epoch":10}`,
		`{"t":3,"counts":[1],"gen":7,"x":[1]}`,
		`{"T0":1,"t1":3,"Exposure":[1],"epoch":9}`,
		// null and [] arrays and rows
		`{"t":3,"counts":null,"gen":7}`,
		`{"t":3,"counts":[],"gen":7}`,
		`{"t0":0,"t1":2,"series":[[1,2],[],null],"epoch":5}`,
		`{"t0":0,"t1":1,"series":null,"epoch":0}`,
		`{"t0":0,"t1":1,"series":[],"epoch":0}`,
		`{"t0":0,"t1":1,"exposure":null,"epoch":0}`,
		// -0, leading zeros, 19- and 20-digit numbers, math.MaxUint64
		`{"t":-0,"counts":[-0],"gen":0}`,
		`{"t":03,"counts":[1],"gen":7}`,
		`{"t0":0,"t1":1,"series":[[00]],"epoch":1}`,
		`{"t":9223372036854775807,"counts":[-9223372036854775808],"gen":18446744073709551615}`,
		`{"t":9223372036854775808,"counts":[1],"gen":0}`,
		`{"t":1,"counts":[-9223372036854775809],"gen":0}`,
		`{"t0":0,"t1":0,"exposure":[1],"epoch":18446744073709551616}`,
		`{"t0":0,"t1":0,"exposure":[1],"epoch":99999999999999999999}`,
		// 1.0 and 1e2 in an int slot, a negative gen
		`{"t":1.0,"counts":[1],"gen":0}`,
		`{"t0":0,"t1":1,"series":[[1e2]],"epoch":1}`,
		`{"t0":1,"t1":3,"exposure":[1E2],"epoch":9}`,
		`{"t":1,"counts":[1],"gen":-1}`,
		`{"t":1,"counts":[1],"gen":1.5}`,
		// truncation and trailing bytes
		`{"t":1,"counts":[1,2`,
		`{"t0":0,"t1":1,"series":[[1],[2]`,
		`{"t0":0,"t1":1,"series":[[1],[2]],"epoch":1`,
		`{"t":1,"counts":[1],"gen":2}x`,
		`{"t0":0,"t1":1,"series":[[1]],"epoch":1}{}`,
		`{"t0":1,"t1":3,"exposure":[0],"epoch":9} `,
		// malformed arrays
		`{"t":1,"counts":[1,],"gen":2}`,
		`{"t":1,"counts":[,1],"gen":2}`,
		`{"t0":0,"t1":1,"series":[[1],,[2]],"epoch":1}`,
		`{"t0":0,"t1":1,"series":[[1]]],"epoch":1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		densityCodec.check(t, data)
		seriesCodec.check(t, data)
		exposureCodec.check(t, data)
	})
}

// TestCountsJSONMergesLikeEncodingJSON: UnmarshalJSON into a value that
// already holds data gives what encoding/json gives, on the one-pass
// path and on the fallback.
func TestCountsJSONMergesLikeEncodingJSON(t *testing.T) {
	for _, data := range []string{
		`{"t0":4,"t1":5,"series":[[9],null],"epoch":3}`,
		`{"t1":5,"series":[[9]]}`,
		`{"t0":4,"t1":5,"series":[[1.5]],"epoch":3}`,
	} {
		old := func() DensitySeriesResponse {
			return DensitySeriesResponse{T0: 1, T1: 2, Series: [][]int{{1, 2}, {3}}, Epoch: 7}
		}
		got, ref := old(), old()
		err := got.UnmarshalJSON([]byte(data))
		refErr := json.Unmarshal([]byte(data), (*seriesJSON)(&ref))
		if (err == nil) != (refErr == nil) || !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: got %#v, %v; the reference gives %#v, %v", data, got, err, ref, refErr)
		}
	}
}

// countsSeries is a density series of steps rows over regions regions,
// with the small counts a dashboard sees.
func countsSeries(steps, regions int) DensitySeriesResponse {
	v := DensitySeriesResponse{T0: 376, T1: 376 + steps - 1, Series: make([][]int, steps), Epoch: 120_411}
	for t := range v.Series {
		v.Series[t] = make([]int, regions)
		for r := range v.Series[t] {
			v.Series[t][r] = (t*7 + r*r) % 5
		}
	}
	return v
}

// BenchmarkCountsJSON encodes and decodes a 24-step density series at
// the dashboard's three zoom levels on a 32x32 grid: 256, 64 and 16
// regions. decode starts from a zero value, as the client does.
func BenchmarkCountsJSON(b *testing.B) {
	for _, regions := range []int{256, 64, 16} {
		v := countsSeries(24, regions)
		body := v.AppendJSON(nil)
		b.Run(fmt.Sprintf("encode/regions=%d", regions), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			buf := make([]byte, 0, len(body))
			for b.Loop() {
				buf = v.AppendJSON(buf[:0])
			}
		})
		b.Run(fmt.Sprintf("decode/regions=%d", regions), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for b.Loop() {
				var got DensitySeriesResponse
				if err := got.UnmarshalJSON(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
