package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/wire"
	"repro/osp"
)

// In-process layer probes: the engine, the decide kernel and the wire
// codec timed through their public functions on the workload's own
// instances and batches, with no socket or process boundary. Each probe
// makes passes over the inputs until minProbe has elapsed and reports
// the median pass.

const minProbe = 300 * time.Millisecond

// layerStats are the probes' results.
type layerStats struct {
	engineNsPerEl, engineNewMs, engineDrainMs, engineAllocsPerEl     float64
	coreDecideNsPerEl, coreSetupMs, coreSerialNsPerEl, coreAdmitFrac float64
	wireEncodeNsPerEl, wireDecodeNsPerEl, wireMaskNsPerEl            float64
	wireVerdictDecodeNsPerEl, wireBytesPerEl                         float64
}

// probeLayers runs every in-process probe. shards is the server's
// resolved shard count, so the engine probe matches what ran remotely.
func probeLayers(ins []*input, shards int) (layerStats, error) {
	var ls layerStats
	var err error
	if ls.engineNsPerEl, ls.engineNewMs, ls.engineDrainMs, ls.engineAllocsPerEl, err = probeEngine(ins, shards); err != nil {
		return ls, err
	}
	if ls.coreDecideNsPerEl, ls.coreSetupMs, err = probeCore(ins); err != nil {
		return ls, err
	}
	var serial time.Duration
	var els, memberships, admitted int
	for _, in := range ins {
		serial += in.serial
		els += len(in.inst.Elements)
		for _, el := range in.inst.Elements {
			memberships += len(el.Members)
		}
		for _, c := range in.oracle.Assigned {
			admitted += int(c)
		}
	}
	ls.coreSerialNsPerEl = float64(serial.Nanoseconds()) / float64(els)
	ls.coreAdmitFrac = float64(admitted) / float64(memberships)
	err = probeWire(ins, &ls)
	return ls, err
}

// passes runs one pass per input, cycling, until minProbe has elapsed,
// and returns the median of the per-pass values fn reports.
func passes(ins []*input, fn func(in *input) (float64, error)) (float64, error) {
	var vals []float64
	start := time.Now()
	for k := 0; k < len(ins) || time.Since(start) < minProbe; k++ {
		v, err := fn(ins[k%len(ins)])
		if err != nil {
			return 0, err
		}
		vals = append(vals, v)
	}
	return median(vals), nil
}

// probeEngine times engine.New, SubmitBatch of every batch with Batch.Done
// verdict masks (the stream path's engine contract) and Drain, and counts
// heap allocations per element across the submit loop.
func probeEngine(ins []*input, shards int) (nsPerEl, newMs, drainMs, allocsPerEl float64, err error) {
	var news, drains, allocs []float64
	// Mask buffers cycle through a channel with room for one per batch, so
	// Done never blocks and, once the first pass has grown them, the
	// submit loop allocates nothing.
	most := 0
	for _, in := range ins {
		most = max(most, len(in.batches))
	}
	masks := make(chan []byte, most)
	done := func(_ uint32, m []byte) { masks <- m[:0] }
	nsPerEl, err = passes(ins, func(in *input) (float64, error) {
		t0 := time.Now()
		e, err := engine.New(in.info, in.seed, engine.Config{Shards: shards})
		if err != nil {
			return 0, err
		}
		news = append(news, ms(time.Since(t0)))
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t1 := time.Now()
		for seq, batch := range in.batches {
			b := e.BorrowBatch()
			b.Offs = append(b.Offs, 0)
			for _, el := range batch {
				b.Members = append(b.Members, el.Members...)
				b.Offs = append(b.Offs, int32(len(b.Members)))
				b.Caps = append(b.Caps, int32(el.Capacity))
			}
			b.Seq, b.Done = uint32(seq), done
			select {
			case b.Masks = <-masks:
			default:
			}
			if err := e.SubmitBatch(b); err != nil {
				return 0, err
			}
		}
		submit := time.Since(t1)
		t2 := time.Now()
		res, err := e.Drain()
		drains = append(drains, ms(time.Since(t2)))
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return 0, err
		}
		if !res.Equal(in.oracle) {
			return 0, fmt.Errorf("engine probe: drained result differs from the serial oracle")
		}
		allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs)/float64(len(in.inst.Elements)))
		return float64((submit + time.Since(t2)).Nanoseconds()) / float64(len(in.inst.Elements)), nil
	})
	return nsPerEl, median(news), median(drains), median(allocs), err
}

// probeCore times the default policy's Setup and its per-element
// DecideInPlace (members copied to scratch first, as the engine's
// mask-carrying path does).
func probeCore(ins []*input) (decideNs, setupMs float64, err error) {
	pol, err := core.LookupPolicy("")
	if err != nil {
		return 0, 0, err
	}
	var setups []float64
	var scratch []osp.SetID
	decideNs, err = passes(ins, func(in *input) (float64, error) {
		t0 := time.Now()
		st, err := pol.Setup(in.info, in.seed)
		if err != nil {
			return 0, err
		}
		setups = append(setups, ms(time.Since(t0)))
		admitted := 0
		t1 := time.Now()
		for _, el := range in.inst.Elements {
			scratch = append(scratch[:0], el.Members...)
			admitted += len(st.DecideInPlace(scratch, el.Capacity))
		}
		d := time.Since(t1)
		sink += admitted
		return float64(d.Nanoseconds()) / float64(len(in.inst.Elements)), nil
	})
	return decideNs, median(setups), err
}

// sink keeps probe results observable so the compiler cannot drop the
// measured calls.
var sink int

// probeWire times the batch codec and the verdict codec per element:
// AppendElements, DecodeBatch, AppendVerdictMask (with the header) and
// the client's verdict walk, DecodeVerdicts + MaskAt + AppendAdmitted.
// It runs on the first instance only, which bounds the frames it holds.
func probeWire(ins []*input, ls *layerStats) error {
	ins = ins[:1]
	in := ins[0]
	pol, err := core.LookupPolicy("")
	if err != nil {
		return err
	}
	st, err := pol.Setup(in.info, in.seed)
	if err != nil {
		return err
	}
	// The verdicts and frames are built once, outside every timer.
	// Element i admitted admitted[aoffs[i]:aoffs[i+1]].
	var admitted []osp.SetID
	aoffs := []int{0}
	for _, el := range in.inst.Elements {
		admitted = append(admitted, st.Decide(el.Members, el.Capacity, nil)...)
		aoffs = append(aoffs, len(admitted))
	}
	var batchFrames, verdictFrames [][]byte
	bytes, i := 0, 0
	for _, b := range in.batches {
		f := wire.AppendVerdictsHeader(nil, len(b))
		for _, el := range b {
			f = wire.AppendVerdictMask(f, el.Members, admitted[aoffs[i]:aoffs[i+1]])
			i++
		}
		verdictFrames = append(verdictFrames, f)
		batchFrames = append(batchFrames, wire.AppendElements(nil, b))
		bytes += len(f) + len(batchFrames[len(batchFrames)-1])
	}
	ls.wireBytesPerEl = float64(bytes) / float64(len(in.inst.Elements))

	perEl := func(d time.Duration) float64 {
		return float64(d.Nanoseconds()) / float64(len(in.inst.Elements))
	}
	var buf []byte
	var members []osp.SetID
	var offs, caps []int32
	if ls.wireEncodeNsPerEl, err = passes(ins, func(in *input) (float64, error) {
		t0 := time.Now()
		for _, b := range in.batches {
			buf = wire.AppendElements(buf[:0], b)
		}
		return perEl(time.Since(t0)), nil
	}); err != nil {
		return err
	}
	if ls.wireDecodeNsPerEl, err = passes(ins, func(*input) (float64, error) {
		t0 := time.Now()
		for _, f := range batchFrames {
			members, offs, caps, err = wire.DecodeBatch(f, members[:0], offs[:0], caps[:0])
			if err != nil {
				return 0, err
			}
		}
		return perEl(time.Since(t0)), nil
	}); err != nil {
		return err
	}
	if ls.wireMaskNsPerEl, err = passes(ins, func(in *input) (float64, error) {
		i := 0
		t0 := time.Now()
		for _, b := range in.batches {
			buf = wire.AppendVerdictsHeader(buf[:0], len(b))
			for _, el := range b {
				buf = wire.AppendVerdictMask(buf, el.Members, admitted[aoffs[i]:aoffs[i+1]])
				i++
			}
		}
		return perEl(time.Since(t0)), nil
	}); err != nil {
		return err
	}
	ls.wireVerdictDecodeNsPerEl, err = passes(ins, func(in *input) (float64, error) {
		n := 0
		t0 := time.Now()
		for bi, f := range verdictFrames {
			payload, _, err := wire.DecodeVerdicts(f)
			if err != nil {
				return 0, err
			}
			for _, el := range in.batches[bi] {
				var mask []byte
				if mask, payload, err = wire.MaskAt(payload, len(el.Members)); err != nil {
					return 0, err
				}
				if members, err = wire.AppendAdmitted(members[:0], mask, el.Members); err != nil {
					return 0, err
				}
				n += len(members)
			}
		}
		d := time.Since(t0)
		if n != len(admitted) {
			return 0, fmt.Errorf("wire probe: verdict frames admit %d memberships, want %d", n, len(admitted))
		}
		return perEl(d), nil
	})
	return err
}

// calibrate times a fixed memory-bound loop: a dependent chain of loads
// through a 32 MB table, so it runs at the host's memory latency and
// flags runs made while the host is in a slow mode. It reports the
// median of three passes in milliseconds.
func calibrate() float64 {
	const size = 1 << 23 // uint32s: 32 MB, well past any cache
	const steps = 1 << 20
	table := make([]uint32, size)
	rng := rand.New(rand.NewSource(1))
	for i := range table {
		table[i] = uint32(rng.Int63())
	}
	var vals []float64
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		x := uint32(rep)
		for i := uint32(0); i < steps; i++ {
			x = table[(x+i)&(size-1)]
		}
		vals = append(vals, ms(time.Since(t0)))
		sink += int(x)
	}
	return median(vals)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
