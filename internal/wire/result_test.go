package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"
	"testing/iotest"

	"repro/internal/core"
	"repro/internal/setsystem"
)

// encodeResult is WriteResult into memory.
func encodeResult(t testing.TB, res *core.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteResult(&buf, res); err != nil {
		t.Fatalf("WriteResult: %v", err)
	}
	return buf.Bytes()
}

// goldenResultV1 is one version-1 OSPR frame, byte for byte as the
// layout in result.go documents it; each line is one field.
const goldenResultV1 = "" +
	"4f535052" + // magic "OSPR"
	"01" + // version 1
	"03000000" + // m 3
	"0000000000000440" + // benefit 2.5
	"02000000" + // k 2
	"00000000" + "02000000" + // completed 0, 2
	"02000000" + "01000000" + "03000000" // assigned 2, 1, 3

// goldenResult is the Result goldenResultV1 encodes.
func goldenResult() *core.Result {
	return &core.Result{
		Completed: []setsystem.SetID{0, 2},
		Benefit:   2.5,
		Assigned:  []int32{2, 1, 3},
	}
}

// TestResultGolden pins the version-1 result frame layout: the
// checked-in frame decodes to the expected Result, WriteResult of that
// Result reproduces the bytes exactly, and no proper prefix decodes.
func TestResultGolden(t *testing.T) {
	raw, err := hex.DecodeString(goldenResultV1)
	if err != nil {
		t.Fatal(err)
	}
	want := goldenResult()
	got, err := ReadResult(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadResult of the golden frame: %v", err)
	}
	if !got.Equal(want) {
		t.Errorf("golden frame decoded to %+v, want %+v", got, want)
	}
	if enc := encodeResult(t, want); !bytes.Equal(enc, raw) {
		t.Errorf("WriteResult\n got %x\nwant %x", enc, raw)
	}
	if n := ResultLen(want); n != len(raw) {
		t.Errorf("ResultLen = %d, frame is %d bytes", n, len(raw))
	}
	for n := range len(raw) {
		if _, err := ReadResult(bytes.NewReader(raw[:n])); !errors.Is(err, ErrFrame) {
			t.Errorf("%d-byte prefix: err = %v, want ErrFrame", n, err)
		}
	}
}

// TestResultRejects sweeps the structural rejections, starting from the
// golden frame: m at byte 5, k at 17, the completed IDs at 21 and the
// counts at 29.
func TestResultRejects(t *testing.T) {
	good, err := hex.DecodeString(goldenResultV1)
	if err != nil {
		t.Fatal(err)
	}
	put := func(at int, v uint32) func([]byte) []byte {
		return func(b []byte) []byte { binary.LittleEndian.PutUint32(b[at:], v); return b }
	}
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr error
	}{
		{"bad magic", func(b []byte) []byte { b[3] = 'S'; return b }, ErrFrame},
		{"version 2", func(b []byte) []byte { b[4] = 2; return b }, ErrVersion},
		{"set count past limit", put(5, MaxSets+1), ErrFrame},
		{"set count overflows", put(5, math.MaxUint32), ErrFrame},
		{"more completed than sets", put(17, 4), ErrFrame},
		{"completed descending", func(b []byte) []byte { put(21, 2)(b); return put(25, 0)(b) }, ErrFrame},
		{"completed repeated", put(25, 0), ErrFrame},
		{"completed id = m", put(25, 3), ErrFrame},
		{"completed id negative", put(21, math.MaxUint32), ErrFrame},
		{"negative count", put(33, math.MaxUint32), ErrFrame},
		{"truncated in header", func(b []byte) []byte { return b[:12] }, ErrFrame},
		{"truncated in completed", func(b []byte) []byte { return b[:27] }, ErrFrame},
		{"truncated in counts", func(b []byte) []byte { return b[:len(b)-2] }, ErrFrame},
		{"one trailing byte", func(b []byte) []byte { return append(b, 0) }, ErrFrame},
		{"a snapshot frame", func([]byte) []byte { return encodeSnapshot(t, sampleSnapshot()) }, ErrFrame},
	}
	for _, tc := range cases {
		raw := tc.mutate(append([]byte(nil), good...))
		if _, err := ReadResult(bytes.NewReader(raw)); !errors.Is(err, tc.wantErr) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.wantErr)
		}
	}

	// An error of the reader itself comes back as is, not as a malformed
	// frame.
	boom := errors.New("boom")
	for _, n := range []int{0, 3, len(good) - 1, len(good)} {
		r := io.MultiReader(bytes.NewReader(good[:n]), iotest.ErrReader(boom))
		if _, err := ReadResult(r); !errors.Is(err, boom) || errors.Is(err, ErrFrame) {
			t.Errorf("error after %d bytes: %v, want boom", n, err)
		}
	}
}

// TestResultChunked round-trips frames whose arrays span several
// chunks, through readers that hand out one byte at a time or end with
// data and EOF together. It runs the host's codec and the per-value one
// big-endian hosts use, which must write the same bytes and read the
// same Result.
func TestResultChunked(t *testing.T) {
	native := aliasable
	defer func() { aliasable = native }()
	for _, m := range []int{0, 1, snapChunk / 4, snapChunk/4 + 1, 3*snapChunk/4 + 5} {
		want := &core.Result{Assigned: make([]int32, m)}
		for i := range want.Assigned {
			want.Assigned[i] = int32(i % 5)
			if i%3 == 0 {
				want.Completed = append(want.Completed, setsystem.SetID(i))
				want.Benefit += float64(i) / 3
			}
		}
		aliasable = native
		raw := encodeResult(t, want)
		if len(raw) != ResultLen(want) {
			t.Fatalf("m=%d: encoded %d bytes, ResultLen says %d", m, len(raw), ResultLen(want))
		}
		for _, bulk := range []bool{native, false} {
			aliasable = bulk
			if !bytes.Equal(encodeResult(t, want), raw) {
				t.Fatalf("m=%d: the per-value and the host's codec write different bytes", m)
			}
			for name, r := range map[string]io.Reader{
				"whole":    bytes.NewReader(raw),
				"one byte": iotest.OneByteReader(bytes.NewReader(raw)),
				"data+EOF": iotest.DataErrReader(bytes.NewReader(raw)),
			} {
				got, err := ReadResult(r)
				if err != nil {
					t.Fatalf("m=%d %s bulk=%v: %v", m, name, bulk, err)
				}
				if !got.Equal(want) {
					t.Fatalf("m=%d %s bulk=%v: round trip differs", m, name, bulk)
				}
				if cap(got.Assigned) != m || cap(got.Completed) != len(want.Completed) {
					t.Fatalf("m=%d %s bulk=%v: capacities %d and %d, want exactly m and k",
						m, name, bulk, cap(got.Assigned), cap(got.Completed))
				}
			}
		}
	}
}

// TestReadResultAllocatesWhatArrives pins the allocation bound: a header
// claiming MaxSets sets costs one chunk when nothing follows, whatever
// it claims for k; a trickle of counts costs at most twice the bytes
// received; and a whole frame costs its two arrays, at most twice their
// bytes, besides the chunk.
func TestReadResultAllocatesWhatArrives(t *testing.T) {
	allocated := func(frame []byte) (uint64, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadResult(bytes.NewReader(frame))
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, err
	}
	header := encodeResult(t, &core.Result{})
	binary.LittleEndian.PutUint32(header[5:], MaxSets)
	for _, k := range []uint32{0, MaxSets} {
		binary.LittleEndian.PutUint32(header[17:], k)
		for _, arrayBytes := range []int{0, 1 << 20} {
			frame := append(append([]byte(nil), header...), make([]byte, arrayBytes)...)
			got, err := allocated(frame)
			if !errors.Is(err, ErrFrame) {
				t.Fatalf("k=%d, %d array bytes of %d sets: err = %v, want ErrFrame", k, arrayBytes, MaxSets, err)
			}
			if limit := uint64(2*arrayBytes + 2*snapChunk); got > limit {
				t.Errorf("k=%d, %d array bytes of a %d-set frame allocated %d bytes, want <= %d", k, arrayBytes, MaxSets, got, limit)
			}
		}
	}

	res := bulkResult()
	arrays := uint64(4 * (len(res.Completed) + len(res.Assigned)))
	got, err := allocated(encodeResult(t, res))
	if err != nil {
		t.Fatal(err)
	}
	if limit := 2*arrays + 2*snapChunk; got > limit {
		t.Errorf("a %d-set frame with %d completed allocated %d bytes for %d array bytes, want <= %d",
			len(res.Assigned), len(res.Completed), got, arrays, limit)
	}
}

// bulkResult is a drained Result at the bulk benchmark's shape: 2^18
// sets of 12 elements, about one in 27 of them completed.
func bulkResult() *core.Result {
	const m = 1 << 18
	res := &core.Result{Assigned: make([]int32, m)}
	for i := range res.Assigned {
		res.Assigned[i] = int32(i % 13)
		if i%27 == 0 {
			res.Assigned[i] = 12
			res.Completed = append(res.Completed, setsystem.SetID(i))
			res.Benefit++
		}
	}
	return res
}

// BenchmarkResultCodec times one result frame each way at the bulk
// benchmark's shape (bulkResult): WriteResult to a discarding writer and
// ReadResult from memory. -benchmem shows the reader allocating the
// Result's two arrays, at most twice their 4(m+k) bytes through the
// doubling, plus one chunk.
func BenchmarkResultCodec(b *testing.B) {
	res := bulkResult()
	raw := encodeResult(b, res)
	b.Run("write", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		for b.Loop() {
			if err := WriteResult(io.Discard, res); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		for b.Loop() {
			if _, err := ReadResult(bytes.NewReader(raw)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
