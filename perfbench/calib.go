package main

import "time"

// The machine reference: a fixed piece of harness-only work, shaped like
// the checker's table walks (dependent random reads and writes over an
// array twice the size of a core's L2 cache, one goroutine). It runs no
// program code. On verify-cold a round runs after every job, so the
// rounds sample the machine's speed across the whole timed phase and the
// gated times are scaled by them (see coldScaled); on the open-loop
// workloads the rounds run after the phase and are only reported.

// refWords sizes the reference array (4 MiB of uint32).
const refWords = 1 << 20

// refSteps is the number of dependent read-modify-write steps per round
// (about 18 ms on a 2-core VM).
const refSteps = 1 << 18

// refNominalMS is the median reference round on the reference machine
// (2-core VM). Scaling by refNominalMS / (this run's median round) keeps
// the scaled latency in that machine's milliseconds.
const refNominalMS = 18.0

// refBuf is allocated once and lives as long as the process, so the
// heap readings before and after a stack's teardown both include it.
var refBuf = func() []uint32 {
	buf := make([]uint32, refWords)
	for i := range buf {
		buf[i] = uint32(i) * 2654435761
	}
	return buf
}()

var refSink uint32

// refRound runs one round of the reference work and returns its time in
// milliseconds.
func refRound() float64 {
	buf := refBuf
	start := time.Now()
	x := uint32(2463534242)
	mask := uint32(len(buf) - 1)
	for i := 0; i < refSteps; i++ {
		// xorshift32 picks the next slot; the read feeds the next index, so
		// every step waits for memory like the checker's table walks.
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		j := (x ^ buf[x&mask]) & mask
		buf[j] += x
		x += buf[j]
	}
	refSink += x
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// machineReference times rounds of the reference work, in milliseconds.
func machineReference(rounds int) []float64 {
	times := make([]float64, rounds)
	for r := range times {
		times[r] = refRound()
	}
	return times
}
