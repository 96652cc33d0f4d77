package workload

// The paper's Figure 7 job is "a simple C++ program that calculates prime
// numbers over an input range", calibrated to take 283 seconds on a free
// CPU. PrimeJob models that: it carries the input range, knows how many
// CPU-seconds the computation takes on the reference processor (via a
// calibrated cost model).

// PrimeJob is a prime-counting task over [From, To].
type PrimeJob struct {
	From, To int
}

// referenceRate is the calibrated sieve throughput of the reference
// (Mips = 1) processor in "candidates per second", chosen so the paper's
// range takes exactly 283 reference seconds.
const referenceRate = float64(PaperRangeTo-PaperRangeFrom) / 283.0

// The range used for the Figure 7 experiment.
const (
	PaperRangeFrom = 1
	PaperRangeTo   = 200_000_000
)

// PaperPrimeJob returns the Figure 7 job: 283 CPU-seconds on a free CPU.
func PaperPrimeJob() PrimeJob { return PrimeJob{From: PaperRangeFrom, To: PaperRangeTo} }

// CPUSeconds returns the job's cost on the reference processor.
func (j PrimeJob) CPUSeconds() float64 {
	if j.To <= j.From {
		return 0
	}
	return float64(j.To-j.From) / referenceRate
}
