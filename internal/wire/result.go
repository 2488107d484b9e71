package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/setsystem"
)

// Result frame ("OSPR") — a drained instance's core.Result, the answer
// to a binary drain. Under every admission policy an instance's run
// state is one assignment count per set, and its outcome is the set of
// completed sets and their weight; the frame carries exactly that and
// nothing the client registered, so it costs 4 bytes per set plus 4 per
// completed set, against the snapshot frame's 16 per set.
//
// All integers little-endian:
//
//	offset  size  field
//	0       4     magic "OSPR"
//	4       1     version (1)
//	5       4     m — number of sets, at most MaxSets
//	9       8     benefit — float64 bits
//	17      4     k — number of completed sets, at most m
//	21      4k    completed set IDs, strictly ascending, each < m
//	21+4k   4m    assigned — per-set assigned counts, each >= 0
//
// The benefit crosses as its bits, so the float-add order that makes
// every drain bit-for-bit equal to the serial oracle stays in one place,
// core.ResultFromCounts on the server. Like the snapshot frame, a result
// frame is the whole of its reader and moves through the same fixed
// chunk in both directions.

// ContentTypeResult marks an HTTP body as a result frame — returned by
// POST /v1/instances/{id}/drain when the request accepts it.
const ContentTypeResult = "application/x-osp-result"

// ResultVersion is the result frame version this package encodes and
// accepts.
const ResultVersion = 1

var magicResult = [4]byte{'O', 'S', 'P', 'R'}

// resultHeaderLen is magic, version, m, benefit and k.
const resultHeaderLen = 4 + 1 + 4 + 8 + 4

// ResultLen returns the encoded byte length of res's result frame.
func ResultLen(res *core.Result) int {
	return resultHeaderLen + 4*len(res.Completed) + 4*len(res.Assigned)
}

// WriteResult encodes res as one result frame to w, moving the arrays
// through a fixed chunk; it returns the first write error. The frame's
// m is len(res.Assigned).
func WriteResult(w io.Writer, res *core.Result) error {
	buf := make([]byte, 0, snapChunk)
	buf = append(buf, magicResult[:]...)
	buf = append(buf, ResultVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(res.Assigned)))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(res.Benefit))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(res.Completed)))
	sw := snapWriter{w: w, buf: buf}
	putInt32s(&sw, res.Completed)
	putInt32s(&sw, res.Assigned)
	sw.flush()
	return sw.err
}

// ReadResult reads one result frame from r, which it reads to EOF: the
// frame must be the whole of r. It checks magic, version, exact length,
// m at most MaxSets, k at most m, completed IDs strictly ascending and
// below m, and non-negative counts. Malformed frames, short ones
// included, fail with ErrFrame or ErrVersion; any other error is r's
// own.
//
// Memory follows the bytes that arrive, not the header's m or k: each
// array grows by doubling past its first chunk, as ReadSnapshot's
// weights do.
func ReadResult(r io.Reader) (*core.Result, error) {
	sr := snapReader{r: r, buf: make([]byte, snapChunk), frame: "result"}
	b, err := sr.take(5, "header")
	if err != nil {
		return nil, err
	}
	if [4]byte(b[:4]) != magicResult {
		return nil, fmt.Errorf("%w: bad magic %q", ErrFrame, b[:4])
	}
	if b[4] != ResultVersion {
		return nil, fmt.Errorf("%w: result version %d, this build speaks %d", ErrVersion, b[4], ResultVersion)
	}
	if b, err = sr.take(resultHeaderLen-5, "header"); err != nil {
		return nil, err
	}
	m64, k64 := binary.LittleEndian.Uint32(b), binary.LittleEndian.Uint32(b[12:])
	if m64 > MaxSets {
		return nil, fmt.Errorf("%w: result set count %d exceeds limit %d", ErrFrame, m64, MaxSets)
	}
	if k64 > m64 {
		return nil, fmt.Errorf("%w: %d completed sets of %d", ErrFrame, k64, m64)
	}
	m := int(m64)
	res := &core.Result{Benefit: math.Float64frombits(binary.LittleEndian.Uint64(b[4:]))}
	if err := readValues(&sr, &res.Completed, int(k64), "completed sets", int32LE[setsystem.SetID]); err != nil {
		return nil, err
	}
	prev := setsystem.SetID(-1)
	for _, id := range res.Completed {
		if id < 0 || int(id) >= m {
			return nil, fmt.Errorf("%w: completed set %d out of range [0, %d)", ErrFrame, uint32(id), m)
		}
		if id <= prev {
			return nil, fmt.Errorf("%w: completed set %d after %d", ErrFrame, id, prev)
		}
		prev = id
	}
	if err := readValues(&sr, &res.Assigned, m, "assigned counts", int32LE[int32]); err != nil {
		return nil, err
	}
	for i, v := range res.Assigned {
		if v < 0 {
			return nil, fmt.Errorf("%w: set %d assigned count %d overflows int32", ErrFrame, i, uint32(v))
		}
	}
	if err := sr.end(m); err != nil {
		return nil, err
	}
	return res, nil
}
