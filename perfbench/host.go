package main

import (
	"fmt"
	"sync"
	"syscall"
	"time"
)

// Host-speed normalization. On a shared host the same pass can take
// 1.8× longer for a few seconds or for minutes while the work (its
// allocation count, its outputs) stays identical, so raw wall times of
// one commit disagree by more than any useful bound. The benchmark
// therefore also times a fixed reference kernel that shares no code with
// the repository, only while the system under test is idle, and scales
// end-to-end times to a host on which that kernel takes refNominalMs.
// A change to the repository cannot move the kernel, so a real gain or
// loss still shows in full; a host that is faster or slower for a while
// moves both and cancels out. Raw wall times are printed beside the
// scaled ones.
//
// The batch workloads take a kernel sample between every two passes and
// scale each pass by the mean of the sample just before it and the one
// just after it; their statistics are taken over the scaled passes. The
// host's speed drifts within seconds, and in ten 30-second runs this
// left the pass median, tail and mean steadier than scaling by the run's
// median sample or by the median of a wider window of samples did.
//
// The kernel has two parts. The compute part is dense 24×24
// matrix-vector products in cache, like the engine's thermal propagator;
// alone it follows only part of the host's drift, because a pass also
// streams through memory (it allocates about 85 MB) and memory speed
// drifts more than the core's. The memory part writes and reads back a
// buffer larger than a core's caches, like the allocator zeroing fresh
// spans; the buffer lies outside the Go heap, so it never changes the
// garbage collector's pacing of the system under test. On a 2-CPU cloud
// host the compute part takes about 60% of the kernel's time and the
// memory part 40%, which matches how much a paper-repro pass slows when
// the host does: over a 150 s recording in which the raw 20-second pass
// medians ranged over 60% of their median, bracketing by the compute part
// alone left a 16% range, by the memory part alone 20% (overcorrecting),
// and by the two together 3%.
//
// A sample runs refRounds rounds of both parts and lasts about a third of
// a pass. The host's speed also changes several times a second; a sample
// that short of a pass would catch one speed where the pass averages
// several, which in five 30-second runs left the pass tails twice as
// spread as four rounds did.

const (
	// refMatvecs is the compute part's number of matrix-vector products
	// per round.
	refMatvecs = 6800
	// refStreamBytes is the size of the memory part's buffer, written and
	// read back once per round.
	refStreamBytes = 8 << 20
	// refRounds is the number of rounds of both parts in one sample.
	refRounds = 4
	// refNominalMs is a sample's duration on the host the figures are
	// scaled to, close to its median on a 2-CPU cloud host.
	refNominalMs = 56.0
)

// refSink keeps the kernel's results live.
var refSink float64

// refKernel runs refRounds rounds of the reference workload on buf
// (refStreamBytes, outside the Go heap).
func refKernel(buf []byte) {
	const n = 24
	var a [n * n]float64
	var x, y [n]float64
	for i := range a {
		a[i] = float64(i%7) * 0.01
	}
	for i := range x {
		x[i] = 1
	}
	var sum byte
	for r := 0; r < refRounds; r++ {
		for it := 0; it < refMatvecs; it++ {
			for i := 0; i < n; i++ {
				s := 0.0
				for j := 0; j < n; j++ {
					s += a[i*n+j] * x[j]
				}
				y[i] = s
			}
			x, y = y, x
		}
		for i := range buf {
			buf[i] = byte(i + r)
		}
		for i := 0; i < len(buf); i += 64 {
			sum += buf[i]
		}
	}
	refSink += x[0] + float64(sum)
}

// hostSpeed times the reference kernel on a fixed number of lanes at
// once — one per CPU the system under test keeps busy — and collects the
// samples of a run.
type hostSpeed struct {
	bufs [][]byte
	refs []float64
}

// newHostSpeed maps one kernel buffer per lane.
func newHostSpeed(lanes int) (*hostSpeed, error) {
	h := &hostSpeed{}
	for i := 0; i < max(1, lanes); i++ {
		b, err := syscall.Mmap(-1, 0, refStreamBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return nil, fmt.Errorf("mapping the reference kernel's buffer: %w", err)
		}
		h.bufs = append(h.bufs, b)
	}
	return h, nil
}

// next times one sample — the kernel on every lane at once, wall time in
// ms until the last lane finishes — records it and returns it. Call it
// only while the system under test is idle, or a slower system would
// slow the kernel too and mask itself.
func (h *hostSpeed) next() float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, b := range h.bufs[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			refKernel(b)
		}()
	}
	refKernel(h.bufs[0])
	wg.Wait()
	v := ms(time.Since(t0))
	h.refs = append(h.refs, v)
	return v
}

// sample times k samples; a nil hostSpeed takes none.
func (h *hostSpeed) sample(k int) {
	for i := 0; h != nil && i < k; i++ {
		h.next()
	}
}

// scale is the factor that turns a raw wall time into a normalized one
// by the median of every sample of the run.
func (h *hostSpeed) scale() float64 { return refNominalMs / newDist(h.refs).median() }

// line describes the reference samples for the report.
func (h *hostSpeed) line() string {
	return fmt.Sprintf("host speed: reference kernel median %.3f ms over %d samples on %d lanes; times are scaled to a host where it takes %.0f ms",
		newDist(h.refs).median(), len(h.refs), len(h.bufs), refNominalMs)
}

// addTime reports a time normalized by the run's median sample, with its
// raw value in the note.
func (h *hostSpeed) addTime(rep *report, name, unit string, raw float64, note string) {
	rep.add(name, unit, raw*h.scale(), fmt.Sprintf("%s; raw %.6g %s", note, raw, unit))
}

// addRate reports a rate normalized by the run's median sample, with its
// raw value in the note.
func (h *hostSpeed) addRate(rep *report, name, unit string, raw float64, note string) {
	rep.add(name, unit, raw/h.scale(), fmt.Sprintf("%s; raw %.6g %s", note, raw, unit))
}

// bracketed is a series of raw times of operations with reference
// samples between them: operation i ran after sample refs[at[i]] and
// before sample refs[at[i]+1]. Several operations may share a bracket.
type bracketed struct {
	raw, refs []float64
	at        []int
}

// newBracketed starts a series with the sample taken before its first
// operation.
func newBracketed(first float64) *bracketed { return &bracketed{refs: []float64{first}} }

// add records the operations run since the last sample (none, for an
// operation that failed) and the sample taken just after them.
func (b *bracketed) add(after float64, raws ...float64) {
	for _, v := range raws {
		b.raw = append(b.raw, v)
		b.at = append(b.at, len(b.refs)-1)
	}
	b.refs = append(b.refs, after)
}

// paired is every operation scaled by the mean of its two samples.
func (b *bracketed) paired() dist {
	out := make([]float64, len(b.raw))
	for i, v := range b.raw {
		k := b.at[i]
		out[i] = v * refNominalMs / ((b.refs[k] + b.refs[k+1]) / 2)
	}
	return newDist(out)
}
