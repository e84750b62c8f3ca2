package main

import (
	"encoding/binary"
	"math/rand/v2"
	"sort"
	"time"
)

// The generator turns one --seed into every input of a run: arrival
// times, the lane (QoS class) of each request, payload sizes and payload
// bytes. The program under test only ever sees the generated requests.

// job is one scheduled request of an open-loop run.
type job struct {
	at   time.Duration // intended send time, from the phase start
	lane int           // index into the workload's lanes
	body int           // index into the lane's payload bodies
}

// laneRNG derives an independent deterministic stream per (seed, purpose,
// lane), so adding a lane never shifts another lane's draws.
func laneRNG(seed uint64, purpose, lane int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(purpose)<<32|uint64(lane)))
}

// Stream purposes, keeping the derived streams apart.
const (
	streamArrivals = iota + 1
	streamBodies
	streamSaturate
	streamChurn
	streamWarm
	streamReservoir
)

// poissonSchedule merges one Poisson arrival process per lane (rates in
// requests per second) over [0, d) into a single schedule ordered by
// intended send time. Each job also draws which of the lane's nBodies
// payload bodies it carries.
func poissonSchedule(seed uint64, rates []float64, nBodies int, d time.Duration) []job {
	var jobs []job
	for lane, rate := range rates {
		if rate <= 0 {
			continue
		}
		rng := laneRNG(seed, streamArrivals, lane)
		var at float64
		for {
			at += rng.ExpFloat64() / rate
			t := time.Duration(at * float64(time.Second))
			if t >= d {
				break
			}
			jobs = append(jobs, job{at: t, lane: lane, body: rng.IntN(nBodies)})
		}
	}
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].at < jobs[j].at })
	return jobs
}

// words is the vocabulary of the text-like payloads: compressible the way
// prose is, not the way a repeated pattern or random noise is.
var words = []string{
	"quality", "of", "service", "object", "middleware", "mediator", "skeleton",
	"contract", "negotiation", "binding", "transport", "module", "request",
	"reply", "the", "a", "and", "is", "to", "in", "with", "latency",
	"bandwidth", "privacy", "replica", "cache", "client", "server", "stub",
	"characteristic", "category", "separation", "concern", "aspect", "weaving",
}

// textBody returns n seeded text-like bytes.
func textBody(rng *rand.Rand, n int) []byte {
	b := make([]byte, 0, n+16)
	for len(b) < n {
		b = append(b, words[rng.IntN(len(words))]...)
		if rng.IntN(9) == 0 {
			b = append(b, '.', ' ')
		} else {
			b = append(b, ' ')
		}
	}
	return b[:n]
}

// randomBody returns n seeded uniformly random bytes.
func randomBody(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := 0; i < n; i += 8 {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], rng.Uint64())
		copy(b[i:], w[:])
	}
	return b
}

// payloadKind selects how a lane's bodies are generated.
type payloadKind int

const (
	payloadRandom payloadKind = iota
	payloadText
)

// bodies pre-generates a lane's n payload bodies of size bytes. The first
// linkBytes of every body are later overwritten with the request's link
// id, so the bytes the program sees are still fully determined by the
// seed and the request's position in the schedule.
func bodies(seed uint64, lane int, kind payloadKind, size, n int) [][]byte {
	rng := laneRNG(seed, streamBodies, lane)
	out := make([][]byte, n)
	for i := range out {
		if kind == payloadText {
			out[i] = textBody(rng, size)
		} else {
			out[i] = randomBody(rng, size)
		}
	}
	return out
}
