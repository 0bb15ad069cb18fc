package main

import "time"

// Machine-speed calibration.
//
// On the reference host (a 2-vCPU VM) the same flow's wall time drifts by
// ±10% over minutes as other tenants load the machine: whole 25-second
// runs of one seed differ with a 9% coefficient of variation. The drift is
// host-wide, so a fixed loop that touches no vm1place code tracks it: over
// six minutes of back-to-back flows of one design, the mean flow time of
// 30-flow blocks varied by 9.5% and correlated 0.94 with the loop's time,
// and their ratio varied by 3.2%. Every time metric is therefore reported
// in calibrated seconds:
//
//	wall seconds × calRef / (this run's mean calibration-loop time)
//
// calRef is the loop's typical time on the reference host, so calibrated
// seconds read as wall seconds there. The loop walks a 1 MiB table, the
// size that tracked best (16 MiB overcorrected).

const (
	calBits  = 17 // a table of 1<<17 uint64 words
	calWords = 1 << calBits
	calIters = 16_000_000
	calRef   = 0.025 // seconds per loop on the quiet reference host
)

type calibrator struct {
	table []uint64
	total time.Duration
	n     int
	sink  uint64
}

func newCalibrator() *calibrator {
	c := &calibrator{table: make([]uint64, calWords)}
	for i := range c.table {
		c.table[i] = uint64(i) // make every page resident before the first flow
	}
	return c
}

// sample times one pass of the loop: a linear congruential walk that
// updates pseudo-random words of the table.
func (c *calibrator) sample() {
	start := time.Now()
	h := c.sink | 1
	for k := 0; k < calIters; k++ {
		h = h*6364136223846793005 + 1442695040888963407
		c.table[h>>(64-calBits)] += h
	}
	c.sink = h
	c.total += time.Since(start)
	c.n++
}

// scale converts wall seconds to calibrated seconds.
func (c *calibrator) scale() float64 {
	return calRef / (c.total.Seconds() / float64(c.n))
}
