package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"mime"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/server/storage"
)

// The binary batch-report format of POST /v2/reports, negotiated with
// Content-Type: application/x-panda-records (JSON stays the default).
//
// A body is a 24-byte batch header followed by count frames of the
// shared storage codec — byte-identical to the frames the WAL stripes
// append, so the server can hand decoded batches from socket to stripe
// without re-encoding:
//
//	offset  size  field
//	0       4     magic "PBR1"
//	4       4     count  (uint32 LE, number of frames; > 0)
//	8       8     user   (int64 LE)
//	16      8     policy_version (int64 LE)
//	24      56×N  frames (8-byte header + 48-byte payload each)
//
// Every frame must carry the header's user and policy_version (one
// batch = one user under one policy, exactly like the JSON body), its
// Cell must be -1 (the server snaps points server-side), and its
// coordinates must be finite. The per-frame CRC32-C makes a truncated
// or bit-flipped body a clean 400 instead of silent corruption.

// ContentTypeBinary negotiates the binary report format.
const ContentTypeBinary = "application/x-panda-records"

// ReportEncoding is the one Content-Type rule of POST /v2/reports, used
// by both the node and the cluster router. binary is true for
// ContentTypeBinary and false for JSON, which an absent header also
// selects; media types match case-insensitively and may carry
// parameters. ok is false for any other media type and for a header
// that does not parse: the caller answers 415 CodeUnsupportedMedia.
func ReportEncoding(contentType string) (binary, ok bool) {
	// Exact matches first: the canonical values stay off the mime
	// parser, which allocates, on the ingest hot path.
	switch contentType {
	case "", "application/json":
		return false, true
	case ContentTypeBinary:
		return true, true
	}
	mt, _, err := mime.ParseMediaType(contentType)
	switch {
	case err != nil:
		return false, false
	case mt == "application/json":
		return false, true
	case mt == ContentTypeBinary:
		return true, true
	}
	return false, false
}

// BinaryMagic opens every binary report body.
const BinaryMagic = "PBR1"

// BinaryHeaderSize is the fixed batch header preceding the frames.
const BinaryHeaderSize = 24

// BinaryBodySize returns the exact body length of a batch of n records.
func BinaryBodySize(n int) int { return BinaryHeaderSize + n*storage.FrameSize }

// AppendBinaryReport appends a complete binary report body for one
// user's releases under policyVersion to buf and returns the extended
// buffer. Cell is encoded as -1: snapping is the server's job, exactly
// as in the JSON format.
func AppendBinaryReport(buf []byte, user, policyVersion int, releases []Release) []byte {
	var hdr [BinaryHeaderSize]byte
	copy(hdr[:], BinaryMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(releases)))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(int64(user)))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(int64(policyVersion)))
	buf = append(buf, hdr[:]...)
	for _, rel := range releases {
		buf = storage.AppendFrame(buf, storage.Record{
			User: user, T: rel.T,
			Point: geo.Pt(rel.X, rel.Y),
			Cell:  -1, PolicyVersion: policyVersion,
		})
	}
	return buf
}

// DecodeBinaryReport parses and verifies a binary report body,
// appending the decoded records to dst (pass a pooled slice to keep the
// hot path allocation-free) and returning the batch's user and policy
// version. maxRecords bounds the declared count. Every integrity
// violation — bad magic, length mismatch, CRC failure, a frame whose
// user/policy_version disagrees with the header, a pre-snapped cell, or
// non-finite coordinates — is an error; the caller maps it to 400.
func DecodeBinaryReport(body []byte, maxRecords int, dst []storage.Record) (user, policyVersion int, recs []storage.Record, err error) {
	if len(body) < BinaryHeaderSize {
		return 0, 0, dst, fmt.Errorf("wire: binary report: body of %d bytes is shorter than the %d-byte header", len(body), BinaryHeaderSize)
	}
	if string(body[:4]) != BinaryMagic {
		return 0, 0, dst, fmt.Errorf("wire: binary report: bad magic %q (want %q)", body[:4], BinaryMagic)
	}
	count := int(binary.LittleEndian.Uint32(body[4:]))
	if count <= 0 {
		return 0, 0, dst, errors.New("wire: binary report: empty batch: at least one release required")
	}
	if count > maxRecords {
		return 0, 0, dst, fmt.Errorf("wire: binary report: batch of %d releases exceeds the limit of %d", count, maxRecords)
	}
	if want := BinaryBodySize(count); len(body) != want {
		return 0, 0, dst, fmt.Errorf("wire: binary report: body is %d bytes, want exactly %d for %d releases", len(body), want, count)
	}
	user = int(int64(binary.LittleEndian.Uint64(body[8:])))
	policyVersion = int(int64(binary.LittleEndian.Uint64(body[16:])))
	off := BinaryHeaderSize
	for i := 0; i < count; i++ {
		rec, ok := storage.DecodeFrame(body[off : off+storage.FrameSize])
		if !ok {
			return 0, 0, dst, fmt.Errorf("wire: binary report: frame %d failed its CRC check", i)
		}
		if rec.User != user {
			return 0, 0, dst, fmt.Errorf("wire: binary report: frame %d user %d disagrees with the batch header's %d", i, rec.User, user)
		}
		if rec.PolicyVersion != policyVersion {
			return 0, 0, dst, fmt.Errorf("wire: binary report: frame %d policy version %d disagrees with the batch header's %d", i, rec.PolicyVersion, policyVersion)
		}
		if rec.Cell != -1 {
			return 0, 0, dst, fmt.Errorf("wire: binary report: frame %d carries cell %d; cells are assigned server-side (encode -1)", i, rec.Cell)
		}
		if !finite(rec.Point.X) || !finite(rec.Point.Y) {
			return 0, 0, dst, fmt.Errorf("wire: binary report: frame %d has a non-finite coordinate", i)
		}
		dst = append(dst, rec)
		off += storage.FrameSize
	}
	return user, policyVersion, dst, nil
}

// PeekBinaryReportUser extracts the routing key (the batch header's
// user) without decoding the frames — the cluster router's peek for
// verbatim binary passthrough.
func PeekBinaryReportUser(body []byte) (int, error) {
	if len(body) < BinaryHeaderSize {
		return 0, fmt.Errorf("wire: binary report: body of %d bytes is shorter than the %d-byte header", len(body), BinaryHeaderSize)
	}
	if string(body[:4]) != BinaryMagic {
		return 0, fmt.Errorf("wire: binary report: bad magic %q (want %q)", body[:4], BinaryMagic)
	}
	return int(int64(binary.LittleEndian.Uint64(body[8:]))), nil
}

// finite reports whether f is neither NaN nor an infinity.
func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }
