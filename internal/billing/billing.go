// Package billing implements the serverless pricing model the paper's
// introduction leans on ("sub-second billing have spurred many users to
// embrace serverless computing"): per-invocation charges plus GB-seconds
// of memory-time, metered from platform activation records. The experiment
// harnesses use it to report what a run would cost, making the economic
// half of the paper's story measurable alongside the performance half.
package billing

import (
	"fmt"
	"time"

	"gowren/internal/faas"
)

// PriceTable holds the unit prices of a FaaS + object-storage deployment.
// Defaults approximate IBM Cloud Functions at the time of the paper:
// $0.000017 per GB-second, no per-request fee on Cloud Functions (Lambda
// charged $0.20/M requests; the field exists for comparisons), and
// per-request class-A/B object-storage prices.
type PriceTable struct {
	// GBSecondUSD is the price of one GB-second of function memory-time.
	GBSecondUSD float64
	// RequestUSD is the price of one function invocation.
	RequestUSD float64
	// StorageWriteUSD is the price of one storage write (class A).
	StorageWriteUSD float64
	// StorageReadUSD is the price of one storage read/list (class B).
	StorageReadUSD float64
}

// IBMCloud2018 returns the paper-era IBM price table.
func IBMCloud2018() PriceTable {
	return PriceTable{
		GBSecondUSD:     0.000017,
		RequestUSD:      0,
		StorageWriteUSD: 0.000005,  // $5.00 / 1M class A
		StorageReadUSD:  0.0000004, // $0.40 / 1M class B
	}
}

// Usage aggregates the billable quantities of a run.
type Usage struct {
	Invocations int
	// GBSeconds is memory-time: sum over activations of
	// (memory/1GB) × execution seconds, with sub-second granularity —
	// the "pay only while running" property.
	GBSeconds float64
	// ComputeSeconds is the raw summed execution time.
	ComputeSeconds float64
	StorageWrites  int64
	StorageReads   int64
}

// Add accumulates other into u.
func (u *Usage) Add(other Usage) {
	u.Invocations += other.Invocations
	u.GBSeconds += other.GBSeconds
	u.ComputeSeconds += other.ComputeSeconds
	u.StorageWrites += other.StorageWrites
	u.StorageReads += other.StorageReads
}

// Cost prices the usage under a table.
func (u Usage) Cost(p PriceTable) float64 {
	// Each float64(...) rounds its product, so no architecture fuses a
	// multiply into the sum and every machine prints the same cost.
	return float64(u.GBSeconds*p.GBSecondUSD) +
		float64(float64(u.Invocations)*p.RequestUSD) +
		float64(float64(u.StorageWrites)*p.StorageWriteUSD) +
		float64(float64(u.StorageReads)*p.StorageReadUSD)
}

// String summarizes the usage.
func (u Usage) String() string {
	return fmt.Sprintf("%d invocations, %.1f GB-s (%.1f compute-s), %d writes, %d reads",
		u.Invocations, u.GBSeconds, u.ComputeSeconds, u.StorageWrites, u.StorageReads)
}

// MeterActivations meters finished activations, using each activation's
// recorded container memory (fallbackMemoryMB when a record predates the
// memory field or is zero). Unfinished activations are skipped: nothing is
// billed until the activation ends.
func MeterActivations(acts []faas.Activation, fallbackMemoryMB int) Usage {
	if fallbackMemoryMB <= 0 {
		fallbackMemoryMB = faas.DefaultMemoryMB
	}
	var u Usage
	for _, a := range acts {
		meterOne(&u, a, fallbackMemoryMB)
	}
	return u
}

// meterOne accumulates one finished activation into u.
func meterOne(u *Usage, a faas.Activation, fallbackMemoryMB int) {
	if !a.Done() {
		return
	}
	mem := a.MemoryMB
	if mem <= 0 {
		mem = fallbackMemoryMB
	}
	secs := a.EndAt.Sub(a.StartAt).Seconds()
	u.Invocations++
	u.ComputeSeconds += secs
	u.GBSeconds += float64(float64(mem) / 1024 * secs) // rounded: no fused multiply-add
}

// VMPriceTable prices a dedicated VM per hour, for the paper's sequential
// baseline comparison (a 4 vCPU / 16 GB notebook VM).
type VMPriceTable struct {
	HourUSD float64
}

// IBMVM2018 approximates the paper-era price of the baseline VM.
func IBMVM2018() VMPriceTable { return VMPriceTable{HourUSD: 0.166} }

// VMCost prices wall-clock occupancy of the VM; unlike functions, a VM
// bills for the whole duration whether busy or idle.
func (p VMPriceTable) VMCost(d time.Duration) float64 {
	return d.Hours() * p.HourUSD
}
