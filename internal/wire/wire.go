// Package wire is the compact binary codec of the admission service's
// ingest hot path: length-prefixed element batches on the way in, packed
// per-element verdict bitmasks on the way out. It exists to carry the
// engine's zero-allocation discipline all the way to the socket — the
// JSON wire shapes (internal/serve.IngestRequest/IngestResponse) spend
// ~96% of the service's throughput budget on decode/marshal, while this
// codec decodes straight into the engine's flat structure-of-arrays
// batch buffers and answers with one bit per membership.
//
// The frames travel as the payloads of the stream protocol
// (internal/stream): one batch frame per Batch envelope, one verdicts
// frame per Verdicts envelope. The JSON ingest endpoint stays for curl
// and debugging; it refuses a ContentTypeBatch body and names the stream.
//
// The control plane has two more frames, both streamed through one
// fixed chunk in both directions. The snapshot frame of snapshot.go
// (WriteSnapshot, ReadSnapshot) holds an instance's Info, sizing and
// counts: it registers an instance and carries snapshot export and
// restore. The result frame of result.go (WriteResult, ReadResult)
// holds a drained core.Result and answers a drain.
//
// # Batch frame (requests)
//
// All integers are little-endian. The layout mirrors the engine's flat
// batch (one shared member buffer plus per-element arrays), so decoding
// is three bulk array fills with no per-element framing to parse:
//
//	offset  size  field
//	0       4     magic "OSPB"
//	4       1     version (1)
//	5       4     count   n — number of elements, >= 1
//	9       4     nmem    — total member count across all elements
//	13      4n    caps    — capacity b(u) per element
//	13+4n   4n    lens    — member count σ(u) per element (sum = nmem)
//	13+8n   4nmem members — parent SetIDs, concatenated in batch order,
//	                        each element's members in ascending order
//
// A frame's length is fully determined by its header; any mismatch is
// rejected before element data is touched.
//
// # Verdicts frame (responses)
//
// The reply encodes each element's admit/drop verdict as a bitmask over
// the members the client itself sent — the admitted sets are always a
// subset of the element's parents, so one bit per membership is the
// information-theoretic floor. Masks are byte-aligned per element
// (ceil(σ(u)/8) bytes, LSB first): bit j set means members[j] was
// admitted, clear means it was dropped.
//
//	offset  size  field
//	0       4     magic "OSPV"
//	4       1     version (1)
//	5       4     count n — number of verdicts, one per batched element
//	9       ...   masks — ceil(σ_0/8) bytes, then ceil(σ_1/8), ...
//
// The client knows every σ(u) (it sent the batch), so the stream needs
// no per-element length prefix.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/setsystem"
)

// ContentTypeBatch marks an HTTP body as a binary batch frame; the JSON
// ingest endpoint answers it with 415 and points at the stream.
const ContentTypeBatch = "application/x-osp-batch"

// Version is the frame version this package encodes and accepts.
const Version = 1

const (
	batchHeaderLen   = 13 // magic + version + count + nmem
	verdictHeaderLen = 9  // magic + version + count
)

var (
	magicBatch    = [4]byte{'O', 'S', 'P', 'B'}
	magicVerdicts = [4]byte{'O', 'S', 'P', 'V'}
)

// Errors reported by the decoders. Both are wrapped with detail; match
// with errors.Is.
var (
	// ErrFrame is a structurally malformed frame: bad magic, truncated or
	// oversized payload, inconsistent counts, out-of-range values.
	ErrFrame = errors.New("wire: malformed frame")
	// ErrVersion is a well-formed frame of an unsupported version.
	ErrVersion = errors.New("wire: unsupported frame version")
)

// BatchLen returns the encoded byte length of a batch frame with n
// elements and nmem total members — what a client should pre-size its
// request buffer to.
func BatchLen(n, nmem int) int { return batchHeaderLen + 8*n + 4*nmem }

// MaskLen returns the byte length of one element's verdict mask.
func MaskLen(load int) int { return (load + 7) / 8 }

// AppendElements appends one encoded batch frame built from elements —
// the client-side form — and returns the extended slice. Pre-grow dst
// with BatchLen to avoid growth copies.
func AppendElements(dst []byte, els []setsystem.Element) []byte {
	nmem := 0
	for _, el := range els {
		nmem += len(el.Members)
	}
	dst = appendBatchHeader(dst, len(els), nmem)
	for _, el := range els {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(el.Capacity))
	}
	for _, el := range els {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(el.Members)))
	}
	for _, el := range els {
		dst = appendSetIDsLE(dst, el.Members)
	}
	return dst
}

// appendBatchHeader appends the magic/version/count/nmem header.
func appendBatchHeader(dst []byte, n, nmem int) []byte {
	dst = append(dst, magicBatch[:]...)
	dst = append(dst, Version)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	return binary.LittleEndian.AppendUint32(dst, uint32(nmem))
}

// PeekBatchCount reads the element count from a batch frame's header
// without decoding anything else — servers bound their batch limit
// against it BEFORE filling long-lived buffers. ok is false when data
// is not a plausible batch frame (too short, wrong magic or version);
// such frames fall through to DecodeBatch's full rejection.
func PeekBatchCount(data []byte) (count int, ok bool) {
	if len(data) < batchHeaderLen || [4]byte(data[:4]) != magicBatch || data[4] != Version {
		return 0, false
	}
	n := binary.LittleEndian.Uint32(data[5:])
	if uint64(n) > uint64(math.MaxInt32) {
		return math.MaxInt32, true
	}
	return int(n), true
}

// DecodeBatch parses one batch frame, appending the decoded flat layout
// onto the three provided slices (pass them length-zero to reuse their
// storage across requests; steady state then allocates nothing). On
// success it returns members grown by nmem entries, offs by n+1 (offs[0]
// = 0) and caps by n — exactly the engine's flat batch shape, so a
// server can decode directly into a borrowed engine batch. Element
// semantics (capacity >= 1, members ascending and in range) are NOT
// checked here: the frame is validated structurally, the elements by the
// engine's batch validation against the instance's universe.
func DecodeBatch(data []byte, members []setsystem.SetID, offs, caps []int32) ([]setsystem.SetID, []int32, []int32, error) {
	capsRaw, memsRaw, offs, err := batchLayout(data, offs)
	if err != nil {
		return members, offs, caps, err
	}
	for i := 0; i < len(capsRaw); i += 4 {
		v := binary.LittleEndian.Uint32(capsRaw[i:])
		if v > math.MaxInt32 {
			return members, offs, caps, fmt.Errorf("%w: element %d capacity %d overflows int32", ErrFrame, i/4, v)
		}
		caps = append(caps, int32(v))
	}
	for i := 0; i < len(memsRaw); i += 4 {
		v := binary.LittleEndian.Uint32(memsRaw[i:])
		if v > math.MaxInt32 {
			return members, offs, caps, fmt.Errorf("%w: member %d set id %d overflows int32", ErrFrame, i/4, v)
		}
		members = append(members, setsystem.SetID(v))
	}
	return members, offs, caps, nil
}

// batchLayout is the structural check both batch decoders share: the
// header (length, magic, version, a non-empty batch) and the exact
// frame length, then the lens pass, whose prefix sums it appends onto
// offs (offs[0] = 0) and checks against the header's member count. It
// returns the caps and members sections, 4 bytes a value.
func batchLayout(data []byte, offs []int32) (capsRaw, memsRaw []byte, offsOut []int32, err error) {
	if len(data) < batchHeaderLen {
		return nil, nil, offs, fmt.Errorf("%w: %d bytes, want at least the %d-byte header", ErrFrame, len(data), batchHeaderLen)
	}
	if [4]byte(data[:4]) != magicBatch {
		return nil, nil, offs, fmt.Errorf("%w: bad magic %q", ErrFrame, data[:4])
	}
	if data[4] != Version {
		return nil, nil, offs, fmt.Errorf("%w: version %d, this server speaks %d", ErrVersion, data[4], Version)
	}
	n := binary.LittleEndian.Uint32(data[5:])
	nmem := binary.LittleEndian.Uint32(data[9:])
	if n == 0 {
		return nil, nil, offs, fmt.Errorf("%w: empty batch", ErrFrame)
	}
	want := uint64(batchHeaderLen) + 8*uint64(n) + 4*uint64(nmem)
	if uint64(len(data)) != want {
		return nil, nil, offs, fmt.Errorf("%w: %d bytes for %d elements with %d members, want %d", ErrFrame, len(data), n, nmem, want)
	}
	capsRaw = data[batchHeaderLen : batchHeaderLen+4*n]
	lensRaw := data[batchHeaderLen+4*n : batchHeaderLen+8*n]
	offs = append(offs, 0)
	var total uint64
	for i := uint32(0); i < n; i++ {
		total += uint64(binary.LittleEndian.Uint32(lensRaw[4*i:]))
		if total > uint64(nmem) {
			return nil, nil, offs, fmt.Errorf("%w: member lengths sum past the declared %d", ErrFrame, nmem)
		}
		offs = append(offs, int32(total))
	}
	if total != uint64(nmem) {
		return nil, nil, offs, fmt.Errorf("%w: member lengths sum to %d, header declares %d", ErrFrame, total, nmem)
	}
	return capsRaw, data[batchHeaderLen+8*n:], offs, nil
}

// AppendVerdictsHeader appends the verdicts frame header for count
// elements and returns the extended slice; follow with one
// AppendVerdictMask per element in batch order.
func AppendVerdictsHeader(dst []byte, count int) []byte {
	dst = append(dst, magicVerdicts[:]...)
	dst = append(dst, Version)
	return binary.LittleEndian.AppendUint32(dst, uint32(count))
}

// AppendVerdictMask appends one element's byte-aligned admitted bitmask:
// bit j (LSB first) is set iff members[j] is in admitted. It zero-extends
// dst by MaskLen(len(members)) bytes and sets only the admitted bits, so
// the cost scales with admissions (bounded by capacity b(u)) plus a
// cursor's advance through members. Both slices must be in ascending
// SetID order — members as the element arrived, admitted as every
// PolicyState's Decide returns it. An admitted ID absent from members
// sets no bit and stops the walk; the round trip through AppendAdmitted
// surfaces the mismatch. The engine, which knows its winners' positions,
// sets the same bits directly.
func AppendVerdictMask(dst []byte, members, admitted []setsystem.SetID) []byte {
	at, ml := len(dst), MaskLen(len(members))
	if ml <= 4 {
		// The common small-degree case: a few byte appends beat the
		// runtime memclr call append(dst, make(...)...) compiles to.
		for k := 0; k < ml; k++ {
			dst = append(dst, 0)
		}
	} else {
		dst = append(dst, make([]byte, ml)...)
	}
	j := 0
	for _, a := range admitted {
		for j < len(members) && members[j] != a {
			j++
		}
		if j == len(members) {
			break
		}
		dst[at+(j>>3)] |= 1 << (j & 7)
		j++
	}
	return dst
}

// DecodeVerdicts parses a verdicts frame header and returns the mask
// payload and element count. The caller walks the payload with MaskAt,
// carving one mask per element of the batch it sent.
func DecodeVerdicts(data []byte) (payload []byte, count int, err error) {
	if len(data) < verdictHeaderLen {
		return nil, 0, fmt.Errorf("%w: %d bytes, want at least the %d-byte header", ErrFrame, len(data), verdictHeaderLen)
	}
	if [4]byte(data[:4]) != magicVerdicts {
		return nil, 0, fmt.Errorf("%w: bad magic %q", ErrFrame, data[:4])
	}
	if data[4] != Version {
		return nil, 0, fmt.Errorf("%w: version %d, this client speaks %d", ErrVersion, data[4], Version)
	}
	n := binary.LittleEndian.Uint32(data[5:])
	if uint64(n) > uint64(math.MaxInt32) {
		return nil, 0, fmt.Errorf("%w: count %d overflows", ErrFrame, n)
	}
	return data[verdictHeaderLen:], int(n), nil
}

// MaskAt carves the next element's mask — the element has the given
// load σ(u) — off the front of the payload, returning the mask and the
// remaining payload.
func MaskAt(payload []byte, load int) (mask, rest []byte, err error) {
	ml := MaskLen(load)
	if len(payload) < ml {
		return nil, nil, fmt.Errorf("%w: %d mask bytes left, element needs %d", ErrFrame, len(payload), ml)
	}
	return payload[:ml], payload[ml:], nil
}

// MaskBit reports whether membership j was admitted in a mask carved by
// MaskAt.
func MaskBit(mask []byte, j int) bool { return mask[j/8]&(1<<(j%8)) != 0 }

// AppendAdmitted appends the members whose mask bit is set onto dst —
// the inverse of AppendVerdictMask. It walks set bits only, so the cost
// scales with admissions (bounded by the element's capacity b(u))
// rather than its load σ(u); callers that also need the dropped
// complement should iterate MaskBit instead. A set bit past the member
// count means the mask's padding was corrupted and is a frame error.
func AppendAdmitted(dst []setsystem.SetID, mask []byte, members []setsystem.SetID) ([]setsystem.SetID, error) {
	for base := 0; base < len(members); base += 8 {
		b := mask[base>>3]
		for b != 0 {
			k := base + bits.TrailingZeros8(b)
			b &= b - 1
			if k >= len(members) {
				return dst, fmt.Errorf("%w: verdict mask admits member %d of an element with %d", ErrFrame, k, len(members))
			}
			dst = append(dst, members[k])
		}
	}
	return dst, nil
}
