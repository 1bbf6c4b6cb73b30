package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/server/storage"
)

// sameRecords reports whether a and b hold the same records, with
// coordinates equal bit for bit (so -0 differs from 0).
func sameRecords(a, b []storage.Record) bool {
	return slices.EqualFunc(a, b, func(x, y storage.Record) bool {
		return x == y && math.Float64bits(x.Point.X) == math.Float64bits(y.Point.X) &&
			math.Float64bits(x.Point.Y) == math.Float64bits(y.Point.Y)
	})
}

// reportRecords is the records the server stores for req, cells unset.
func reportRecords(req BatchReportRequest) []storage.Record {
	var recs []storage.Record
	for _, rel := range req.Releases {
		recs = append(recs, storage.Record{
			User: req.User, T: rel.T, Point: geo.Pt(rel.X, rel.Y), Cell: -1, PolicyVersion: req.PolicyVersion,
		})
	}
	return recs
}

// checkReportJSON decodes data under maxRecords with DecodeJSONReport
// and with the reference, decodeReportFallback, which must agree: the
// same error text, or the same user, version and records. Both append
// to a dst that already holds a record and must keep it. If
// encoding/json decodes data to a BatchReportRequest, AppendJSON must
// write json.Marshal's bytes for it, and the one-pass parser must read
// those bytes back to it without falling back.
func checkReportJSON(t *testing.T, data []byte, maxRecords int) {
	t.Helper()
	prefix := []storage.Record{{User: 7, T: 7, Cell: 7}}
	user, version, recs, err := DecodeJSONReport(data, maxRecords, slices.Clone(prefix))
	refUser, refVersion, refRecs, refErr := decodeReportFallback(data, maxRecords, slices.Clone(prefix))
	if fmt.Sprint(err) != fmt.Sprint(refErr) {
		t.Fatalf("%q (limit %d): DecodeJSONReport error %v, the reference's %v", data, maxRecords, err, refErr)
	}
	if user != refUser || version != refVersion || !sameRecords(recs, refRecs) {
		t.Fatalf("%q (limit %d): DecodeJSONReport gives user %d, version %d, %v; the reference %d, %d, %v",
			data, maxRecords, user, version, recs, refUser, refVersion, refRecs)
	}
	if err != nil && !sameRecords(recs, prefix) {
		t.Fatalf("%q (limit %d): failed with %v but left %v, want dst as given", data, maxRecords, err, recs)
	}

	var req BatchReportRequest
	if json.NewDecoder(bytes.NewReader(data)).Decode(&req) != nil {
		return
	}
	want, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := req.AppendJSON([]byte("x"))
	if err != nil || !bytes.Equal(enc, append([]byte("x"), want...)) {
		t.Fatalf("AppendJSON of %+v:\n got %q, %v\nwant %q", req, enc, err, want)
	}
	user, version, n, recs, ok := parseReport(want, len(req.Releases), nil)
	if !ok {
		t.Fatalf("the one-pass parser falls back on AppendJSON's %q", want)
	}
	if user != req.User || version != req.PolicyVersion || n != len(req.Releases) || !sameRecords(recs, reportRecords(req)) {
		t.Fatalf("%q parses to user %d, version %d, %d releases, %v; want %+v", want, user, version, n, recs, req)
	}
}

// reportBody is the canonical body of n releases, with t = i and
// coordinates that need several digits.
func reportBody(n int) []byte {
	req := BatchReportRequest{User: 42, PolicyVersion: 3, Releases: make([]Release, n)}
	for i := range req.Releases {
		req.Releases[i] = Release{T: i, X: float64(i) + 0.5, Y: 31.9 - float64(i)/7}
	}
	body, err := req.AppendJSON(nil)
	if err != nil {
		panic(err)
	}
	return body
}

// FuzzReportJSON checks the report codec against encoding/json on every
// input, under a limit that no seed reaches and under one that the
// longer seeds pass; see checkReportJSON.
func FuzzReportJSON(f *testing.F) {
	for _, seed := range []string{
		string(reportBody(1)), string(reportBody(25)),
		`null`, `{}`, `[]`, ``,
		`{"user":1,"policy_version":2,"releases":[]}`,
		`{"user":1,"policy_version":2,"releases":null}`,
		// whitespace
		" {\"user\":1,\"policy_version\":2,\"releases\":[{\"t\":0,\"x\":1,\"y\":2}]}",
		"{\"user\":1,\"policy_version\":2,\"releases\":[{\"t\":0,\"x\":1,\"y\":2}]}\n\t\r ",
		`{"user": 1, "policy_version": 2, "releases": [{"t": 0, "x": 1, "y": 2}]}`,
		`{"user":1,"policy_version":2,"releases":[ {"t":0,"x":1,"y":2} ]}`,
		// reordered, case-folded, duplicate and unknown keys
		`{"policy_version":2,"user":1,"releases":[{"t":0,"x":1,"y":2}]}`,
		`{"user":1,"policy_version":2,"releases":[{"x":1,"y":2,"t":0}]}`,
		`{"User":1,"Policy_Version":2,"releases":[{"T":0,"X":1,"y":2}]}`,
		`{"user":1,"user":5,"policy_version":2,"releases":[{"t":0,"x":1,"y":2}]}`,
		`{"user":1,"policy_version":2,"releases":[{"t":0,"x":1,"y":2,"x":3}]}`,
		`{"user":1,"policy_version":2,"releases":[{"t":0,"x":1,"y":2}],"mode":"async"}`,
		`{"user":1,"policy_version":2,"releases":[{"t":0,"x":1,"y":2,"cell":4}]}`,
		`{"user":null,"policy_version":2,"releases":[{"t":0,"x":null,"y":2}]}`,
		// floats
		`{"user":1,"policy_version":2,"releases":[{"t":0,"x":-0,"y":-0.0}]}`,
		`{"user":1,"policy_version":2,"releases":[{"t":0,"x":1e-7,"y":1E-7}]}`,
		`{"user":1,"policy_version":2,"releases":[{"t":0,"x":1e21,"y":1e+21}]}`,
		`{"user":1,"policy_version":2,"releases":[{"t":0,"x":5e-324,"y":1.7976931348623157e308}]}`,
		`{"user":1,"policy_version":2,"releases":[{"t":0,"x":0.000001,"y":123456789012345678901}]}`,
		`{"user":1,"policy_version":2,"releases":[{"t":0,"x":1e400,"y":2}]}`,
		`{"user":1,"policy_version":2,"releases":[{"t":0,"x":1e-400,"y":2}]}`,
		`{"user":1,"policy_version":2,"releases":[{"t":0,"x":+1,"y":2}]}`,
		`{"user":1,"policy_version":2,"releases":[{"t":0,"x":.5,"y":2}]}`,
		`{"user":1,"policy_version":2,"releases":[{"t":0,"x":01,"y":2}]}`,
		`{"user":1,"policy_version":2,"releases":[{"t":0,"x":1.,"y":2}]}`,
		`{"user":1,"policy_version":2,"releases":[{"t":0,"x":1e,"y":2}]}`,
		`{"user":1,"policy_version":2,"releases":[{"t":0,"x":0x10,"y":2}]}`,
		`{"user":1,"policy_version":2,"releases":[{"t":0,"x":Inf,"y":NaN}]}`,
		`{"user":1,"policy_version":2,"releases":[{"t":0,"x":"1","y":2}]}`,
		// t values
		`{"user":1,"policy_version":2,"releases":[{"t":1.0,"x":1,"y":2}]}`,
		`{"user":1,"policy_version":2,"releases":[{"t":01,"x":1,"y":2}]}`,
		`{"user":1,"policy_version":2,"releases":[{"t":-0,"x":1,"y":2}]}`,
		`{"user":1,"policy_version":2,"releases":[{"t":1e2,"x":1,"y":2}]}`,
		// int overflow
		`{"user":9223372036854775807,"policy_version":-9223372036854775808,"releases":[{"t":0,"x":1,"y":2}]}`,
		`{"user":9223372036854775808,"policy_version":2,"releases":[{"t":0,"x":1,"y":2}]}`,
		`{"user":1,"policy_version":2,"releases":[{"t":-9223372036854775809,"x":1,"y":2}]}`,
		// truncation and trailing bytes
		`{"user":1,"policy_version":2,"releases":[{"t":0,"x":1,"y":2}`,
		`{"user":1,"policy_version":2,"releases":[{"t":0,"x":1,"y":2},`,
		`{"user":1,"policy_version":2,"releases":[{"t":0,"x":1,"y":2}]`,
		`{"user":1,"policy_version":2,"releases":[{"t":0,"x":1,"y":2}]}x`,
		`{"user":1,"policy_version":2,"releases":[{"t":0,"x":1,"y":2}]}{}`,
		`{"user":1,"policy_version":2,"releases":[{"t":0,"x":1,"y":2}]}]`,
		// malformed arrays
		`{"user":1,"policy_version":2,"releases":[{"t":0,"x":1,"y":2},]}`,
		`{"user":1,"policy_version":2,"releases":[,{"t":0,"x":1,"y":2}]}`,
		`{"user":1,"policy_version":2,"releases":[{"t":0,"x":1,"y":2}{"t":1,"x":1,"y":2}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReportJSON(t, data, 1<<20)
		checkReportJSON(t, data, 2)
	})
}

// TestReportJSONNonFinite: a NaN or infinite coordinate fails AppendJSON
// with json.Marshal's error and leaves dst as it was.
func TestReportJSONNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, rel := range []Release{{T: 1, X: f, Y: 2}, {T: 1, X: 2, Y: f}} {
			req := BatchReportRequest{User: 1, PolicyVersion: 1, Releases: []Release{{T: 0, X: 1, Y: 1}, rel}}
			_, want := json.Marshal(req)
			got, err := req.AppendJSON([]byte("x"))
			var unsupported *json.UnsupportedValueError
			if !errors.As(err, &unsupported) || err.Error() != want.Error() {
				t.Errorf("AppendJSON of %+v: error %v, want json.Marshal's %v", rel, err, want)
			}
			if string(got) != "x" {
				t.Errorf("AppendJSON of %+v left %q, want dst as given", rel, got)
			}
		}
	}
}

// TestReportJSONLimit: past maxRecords the one-pass parser counts the
// releases without appending them, so the error names the whole batch,
// on the fallback path too, and dst does not grow.
func TestReportJSONLimit(t *testing.T) {
	body := reportBody(25)
	if _, _, n, recs, ok := parseReport(body, 10, nil); !ok || n != 25 || len(recs) != 10 {
		t.Errorf("parseReport under a limit of 10: %d releases, %d records, ok %v; want 25, 10, true", n, len(recs), ok)
	}
	indented := bytes.ReplaceAll(body, []byte(`,"releases"`), []byte(`, "releases"`))
	for _, b := range [][]byte{body, indented} {
		_, _, recs, err := DecodeJSONReport(b, 10, make([]storage.Record, 0, 10))
		if err == nil || err.Error() != "batch of 25 releases exceeds the limit of 10" {
			t.Errorf("%.30q: error %v, want the 25-release limit message", b, err)
		}
		if len(recs) != 0 || cap(recs) != 10 {
			t.Errorf("%.30q: recs has length %d and capacity %d, want dst as given", b, len(recs), cap(recs))
		}
	}
}

// BenchmarkReportJSON encodes and decodes a report of 25 releases, the
// size a phone sends, and of 512. decode appends into a reused slice,
// as the server does into a pooled one.
func BenchmarkReportJSON(b *testing.B) {
	for _, n := range []int{25, 512} {
		body := reportBody(n)
		var req BatchReportRequest
		if err := json.Unmarshal(body, &req); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("encode/releases=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			buf := make([]byte, 0, len(body))
			for b.Loop() {
				var err error
				if buf, err = req.AppendJSON(buf[:0]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("decode/releases=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			dst := make([]storage.Record, 0, n)
			for b.Loop() {
				var err error
				if _, _, dst, err = DecodeJSONReport(body, n, dst[:0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
