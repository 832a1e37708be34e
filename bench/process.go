package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// processSampler watches the benchmark process itself during a traced run:
// peak live heap, peak goroutine count, and total GC pause.
type processSampler struct {
	stopCh    chan struct{}
	wg        sync.WaitGroup
	peakHeap  uint64
	peakGo    int
	gcPauseNs uint64 // at start
}

func startProcessSampler() *processSampler {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p := &processSampler{stopCh: make(chan struct{}), gcPauseNs: ms.PauseTotalNs}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(20 * time.Millisecond) //gowren:allow clockcheck — host-time sampling of the benchmark process
		defer tick.Stop()
		for {
			select {
			case <-p.stopCh:
				return
			case <-tick.C:
				metrics.Read(sample)
				if sample[0].Value.Kind() == metrics.KindUint64 && sample[0].Value.Uint64() > p.peakHeap {
					p.peakHeap = sample[0].Value.Uint64()
				}
				if n := runtime.NumGoroutine(); n > p.peakGo {
					p.peakGo = n
				}
			}
		}
	}()
	return p
}

// stop ends the sampler, waits for it, and records what it saw.
func (p *processSampler) stop(out *collector) {
	close(p.stopCh)
	p.wg.Wait()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.add("gowren.peak_heap_mb", float64(p.peakHeap)/(1<<20))
	out.add("gowren.goroutines_peak", float64(p.peakGo))
	out.add("gowren.gc_pause_ms_total", float64(ms.PauseTotalNs-p.gcPauseNs)/1e6)
}
