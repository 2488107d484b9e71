package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/setsystem"
	"repro/internal/workload"
)

// FuzzDecodeBatch drives both batch decoders with arbitrary bytes and
// cross-checks them: neither may panic, and whenever the copying decoder
// accepts a frame the aliasing decoder must reproduce its output bit for
// bit. The seed corpus is the round-trip frames the codec tests use plus
// each structural corruption the rejection matrix covers.
func FuzzDecodeBatch(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	inst, err := workload.Uniform(workload.UniformConfig{M: 64, N: 40, Load: 5, MinLoad: 1, Capacity: 2}, rng)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(AppendElements(nil, inst.Elements))
	f.Add(AppendElements(nil, inst.Elements[:1]))
	f.Add(AppendElements(nil, []setsystem.Element{{Members: []setsystem.SetID{0}, Capacity: 1}}))
	short := AppendElements(nil, inst.Elements[:4])
	f.Add(short[:len(short)-2])
	bad := append([]byte(nil), short...)
	bad[4] = 9
	f.Add(bad)
	f.Add([]byte("OSPB"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		members, offs, caps, derr := DecodeBatch(data, nil, nil, nil)

		// Alias the same bytes from an aligned position.
		buf := make([]byte, len(data)+4)
		shift := BatchAliasShift(buf)
		aligned := buf[shift : shift+len(data)]
		copy(aligned, data)
		aMembers, aOffs, aCaps, ok, aerr := AliasBatch(aligned, nil)

		if derr == nil {
			if aerr != nil {
				t.Fatalf("DecodeBatch accepted, AliasBatch errored: %v", aerr)
			}
			if !ok {
				t.Fatal("AliasBatch refused an aligned frame DecodeBatch accepted")
			}
			if len(aMembers) != len(members) || len(aOffs) != len(offs) || len(aCaps) != len(caps) {
				t.Fatalf("shapes differ: alias %d/%d/%d, copy %d/%d/%d",
					len(aMembers), len(aOffs), len(aCaps), len(members), len(offs), len(caps))
			}
			for i := range members {
				if aMembers[i] != members[i] {
					t.Fatalf("member %d: alias %d, copy %d", i, aMembers[i], members[i])
				}
			}
			for i := range offs {
				if aOffs[i] != offs[i] {
					t.Fatalf("off %d: alias %d, copy %d", i, aOffs[i], offs[i])
				}
			}
			for i := range caps {
				if aCaps[i] != caps[i] {
					t.Fatalf("cap %d: alias %d, copy %d", i, aCaps[i], caps[i])
				}
			}
			// Round-trip: re-encoding the decoded layout reproduces the frame.
			if re := appendBatch(nil, members, offs, caps); !bytes.Equal(re, data) {
				t.Fatalf("re-encoded frame differs: %d vs %d bytes", len(re), len(data))
			}
			return
		}

		// DecodeBatch rejected. AliasBatch may still accept one class of
		// frame the copying decoder refuses up front: values past MaxInt32,
		// which alias to negative int32s and are left for Batch.Validate.
		// Any such acceptance must carry a visibly negative value.
		if ok {
			negative := false
			for _, c := range aCaps {
				if c < 0 {
					negative = true
				}
			}
			for _, m := range aMembers {
				if m < 0 {
					negative = true
				}
			}
			if !negative {
				t.Fatalf("AliasBatch accepted a frame DecodeBatch rejected (%v) with no out-of-range value", derr)
			}
		}
	})
}

// FuzzReadSnapshot drives the snapshot reader with arbitrary bytes. It
// must never panic; whatever it accepts, WriteSnapshot re-encodes to a
// frame that reads back equal, and every proper prefix of an accepted
// frame is rejected. The seed corpus is the codec tests' sample frames.
func FuzzReadSnapshot(f *testing.F) {
	s := sampleSnapshot()
	f.Add(encodeSnapshot(f, s))
	s.Final, s.Label = true, ""
	f.Add(encodeSnapshot(f, s))
	f.Add(encodeSnapshot(f, &Snapshot{}))
	f.Add(encodeSnapshot(f, &Snapshot{Weights: []float64{1}, Sizes: []int{1}, Assigned: []int32{0}}))
	good := encodeSnapshot(f, sampleSnapshot())
	f.Add(good[:len(good)-3])
	f.Add(append(append([]byte(nil), good...), 0))
	f.Add([]byte("OSPS"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrFrame) && !errors.Is(err, ErrVersion) {
				t.Fatalf("rejection is neither ErrFrame nor ErrVersion: %v", err)
			}
			return
		}
		re := encodeSnapshot(t, s)
		back, err := ReadSnapshot(bytes.NewReader(re))
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if !snapshotsEqual(back, s) {
			t.Fatalf("re-encoded frame reads back different: %+v vs %+v", back, s)
		}
		for n := range len(data) {
			if _, err := ReadSnapshot(bytes.NewReader(data[:n])); err == nil {
				t.Fatalf("%d-byte prefix of an accepted %d-byte frame accepted", n, len(data))
			}
		}
	})
}

// FuzzReadResult drives the result reader with arbitrary bytes. It must
// never panic; whatever it accepts, WriteResult re-encodes to the same
// bytes (so the frame reads back equal), and every proper prefix of an
// accepted frame is rejected. The seed corpus is the codec tests'
// sample frames.
func FuzzReadResult(f *testing.F) {
	good := encodeResult(f, goldenResult())
	f.Add(good)
	f.Add(encodeResult(f, &core.Result{}))
	f.Add(encodeResult(f, &core.Result{Assigned: []int32{0, 7}}))
	f.Add(good[:len(good)-3])
	f.Add(append(append([]byte(nil), good...), 0))
	f.Add([]byte("OSPR"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := ReadResult(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrFrame) && !errors.Is(err, ErrVersion) {
				t.Fatalf("rejection is neither ErrFrame nor ErrVersion: %v", err)
			}
			return
		}
		if re := encodeResult(t, res); !bytes.Equal(re, data) {
			t.Fatalf("accepted %d-byte frame re-encodes to %d different bytes", len(data), len(re))
		}
		for n := range len(data) {
			if _, err := ReadResult(bytes.NewReader(data[:n])); err == nil {
				t.Fatalf("%d-byte prefix of an accepted %d-byte frame accepted", n, len(data))
			}
		}
	})
}
