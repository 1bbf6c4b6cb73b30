package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/server/storage"
)

// The JSON batch report carries its own codec, because POST /v2/reports
// is the busiest path of the service and reflection-based encoding/json
// spends most of a report's decode time on the releases.
// BatchReportRequest.AppendJSON writes the bytes json.Marshal writes,
// and DecodeJSONReport reads that form in one pass straight into
// records. Any other form goes to encoding/json, so every body decodes
// to the records, or fails with the error, that it would without the
// codec.

// AppendJSON appends the JSON encoding of r to dst: the bytes
// json.Marshal writes for it. A NaN or infinite coordinate is an
// *json.UnsupportedValueError, as from json.Marshal, and dst comes back
// as it was given.
func (r BatchReportRequest) AppendJSON(dst []byte) ([]byte, error) {
	n := len(dst)
	dst = append(dst, `{"user":`...)
	dst = strconv.AppendInt(dst, int64(r.User), 10)
	dst = append(dst, `,"policy_version":`...)
	dst = strconv.AppendInt(dst, int64(r.PolicyVersion), 10)
	dst = append(dst, `,"releases":`...)
	if r.Releases == nil {
		return append(dst, "null}"...), nil
	}
	dst = append(dst, '[')
	for i, rel := range r.Releases {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"t":`...)
		dst = strconv.AppendInt(dst, int64(rel.T), 10)
		var err error
		dst = append(dst, `,"x":`...)
		if dst, err = appendFloat(dst, rel.X); err != nil {
			return dst[:n], err
		}
		dst = append(dst, `,"y":`...)
		if dst, err = appendFloat(dst, rel.Y); err != nil {
			return dst[:n], err
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}"...), nil
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// decimal that reads back to f, in exponent form below 1e-6 and from
// 1e21 up, with a two-digit negative exponent written as one digit
// (1e-7, not 1e-07).
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		_, err := json.Marshal(f) // its *json.UnsupportedValueError
		return dst, err
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// DecodeJSONReport parses a JSON report body, appending its releases to
// dst as records with the batch's user and policy version and Cell -1
// (pass a pooled slice to keep the hot path allocation-free), and
// returns the batch's user and policy version. It reads the form
// BatchReportRequest.AppendJSON writes, plus trailing whitespace, in one
// pass; any other input goes to encoding/json, whose json.Decoder, like
// the one that read report bodies before this codec, ignores what
// follows the first value. maxRecords bounds the number of releases. A
// malformed body, an empty batch and one of more than maxRecords
// releases are errors, whose text is the message the server answers;
// recs then holds what dst held.
func DecodeJSONReport(body []byte, maxRecords int, dst []storage.Record) (user, version int, recs []storage.Record, err error) {
	start := len(dst)
	user, version, n, recs, ok := parseReport(body, maxRecords, dst)
	if !ok {
		return decodeReportFallback(body, maxRecords, recs[:start])
	}
	if err := checkBatchSize(n, maxRecords); err != nil {
		return 0, 0, recs[:start], err
	}
	return user, version, recs, nil
}

// parseReport reads the form BatchReportRequest.AppendJSON writes. It
// appends a record to dst for each of the first maxRecords releases and
// counts every release in n; ok is false for any other input. recs is
// dst with what was appended, also when ok is false.
func parseReport(body []byte, maxRecords int, dst []storage.Record) (user, version, n int, recs []storage.Record, ok bool) {
	p := jsonParser{data: body}
	if !p.lit(`{"user":`) {
		return 0, 0, 0, dst, false
	}
	if user, ok = p.int(); !ok || !p.lit(`,"policy_version":`) {
		return 0, 0, 0, dst, false
	}
	if version, ok = p.int(); !ok || !p.lit(`,"releases":`) {
		return 0, 0, 0, dst, false
	}
	if p.lit("null") {
		return user, version, 0, dst, p.end()
	}
	if !p.char('[') {
		return 0, 0, 0, dst, false
	}
	for ; !p.char(']'); n++ {
		if n > 0 && !p.char(',') || !p.lit(`{"t":`) {
			return 0, 0, 0, dst, false
		}
		t, ok := p.int()
		if !ok || !p.lit(`,"x":`) {
			return 0, 0, 0, dst, false
		}
		x, ok := p.float()
		if !ok || !p.lit(`,"y":`) {
			return 0, 0, 0, dst, false
		}
		y, ok := p.float()
		if !ok || !p.char('}') {
			return 0, 0, 0, dst, false
		}
		if n < maxRecords {
			dst = append(dst, storage.Record{User: user, T: t, Point: geo.Pt(x, y), Cell: -1, PolicyVersion: version})
		}
	}
	return user, version, n, dst, p.end()
}

// decodeReportFallback is DecodeJSONReport by encoding/json alone: the
// one-pass parser's fallback, and the reference its fuzzer holds it to.
func decodeReportFallback(body []byte, maxRecords int, dst []storage.Record) (user, version int, recs []storage.Record, err error) {
	var req BatchReportRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return 0, 0, dst, fmt.Errorf("decoding batch report: %w", err)
	}
	if err := checkBatchSize(len(req.Releases), maxRecords); err != nil {
		return 0, 0, dst, err
	}
	for _, rel := range req.Releases {
		dst = append(dst, storage.Record{
			User: req.User, T: rel.T, Point: geo.Pt(rel.X, rel.Y),
			Cell: -1, PolicyVersion: req.PolicyVersion,
		})
	}
	return req.User, req.PolicyVersion, dst, nil
}

// checkBatchSize refuses a batch of n releases that is empty or holds
// more than maxRecords.
func checkBatchSize(n, maxRecords int) error {
	switch {
	case n == 0:
		return errors.New("empty batch: at least one release required")
	case n > maxRecords:
		return fmt.Errorf("batch of %d releases exceeds the limit of %d", n, maxRecords)
	}
	return nil
}
