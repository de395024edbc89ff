package main

import (
	"math/rand"
	"sort"
	"sync"
	"time"
)

// The speed probe is the benchmark's measuring stick for the box itself.
//
// On the shared 2-core reference box the same binary on the same inputs runs
// up to 1.4 times slower for minutes at a time (a neighbour on the host),
// and CPU time per operation moves with wall time, so nothing measured
// inside the server can tell a slow program from a slow box. The probe can:
// it is a fixed piece of work that touches no code of the repository — edit
// distances over fixed strings, a sort and a histogram, on one goroutine per
// core — timed between the slices of the closed loop and around every
// set-up, while the server is idle. Every time an untraced run reports is
// divided by slowdown = this run's probe time ÷ refProbeMS, that is, stated
// at the reference speed; a rate is multiplied by it. Over 16 blocks of 20 s
// of a fixed search load, block medians spread (interquartile ÷ median) by
// 20 % raw and by 7 % after this division.
//
// The probe is part of the metrics' definition: changing its work or
// refProbeMS changes what every time means, so neither may change in a PR
// that claims a gain.
const (
	probeLanes   = 2  // goroutines, one per core of the reference box
	probeStrings = 96 // fixed strings; each is compared with the next probeFanout
	probeFanout  = 40
	probeInts    = 40000

	// refProbeMS is the probe's time on the reference box at the speed the
	// frozen rates and limits of workloads.go were measured at: the rounded
	// median probe time over the runs behind bench/calibration.json.
	refProbeMS = 20.0
)

type probeLane struct {
	row  []int
	buf  []int
	hist []uint16
	sum  int
}

type speedProbe struct {
	strs  [][]byte
	ints  []int
	lanes [probeLanes]probeLane
}

// newSpeedProbe builds the probe's inputs from a constant, not from --seed:
// it must be the same work in every run.
func newSpeedProbe() *speedProbe {
	r := rand.New(rand.NewSource(1))
	p := &speedProbe{strs: make([][]byte, probeStrings), ints: make([]int, probeInts)}
	longest := 0
	for i := range p.strs {
		b := make([]byte, 20+r.Intn(30))
		for k := range b {
			b[k] = byte('a' + r.Intn(8))
		}
		p.strs[i] = b
		longest = max(longest, len(b))
	}
	for i := range p.ints {
		p.ints[i] = r.Int()
	}
	for l := range p.lanes {
		p.lanes[l] = probeLane{row: make([]int, longest+1), buf: make([]int, probeInts), hist: make([]uint16, 1<<12)}
	}
	return p
}

// once runs the fixed work on every lane at once and returns how long the
// slowest lane took, in milliseconds. It allocates nothing.
func (p *speedProbe) once() float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	for l := range p.lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.work(&p.lanes[l])
		}()
	}
	wg.Wait()
	return ms(time.Since(t0))
}

func (p *speedProbe) work(l *probeLane) {
	for i, a := range p.strs {
		for j := 1; j <= probeFanout; j++ {
			l.sum += editDistance(a, p.strs[(i+j)%len(p.strs)], l.row)
		}
	}
	copy(l.buf, p.ints)
	sort.Ints(l.buf)
	for _, v := range l.buf {
		l.hist[v&(len(l.hist)-1)]++
	}
}

// editDistance is the two-row Levenshtein distance; row needs len(b)+1 cells.
func editDistance(a, b []byte, row []int) int {
	row = row[:len(b)+1]
	for j := range row {
		row[j] = j
	}
	for i := 1; i <= len(a); i++ {
		diag := row[0]
		row[0] = i
		for j := 1; j <= len(b); j++ {
			best := diag
			if a[i-1] != b[j-1] {
				best++
			}
			best = min(best, row[j-1]+1, row[j]+1)
			diag, row[j] = row[j], best
		}
	}
	return row[len(b)]
}
