package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"time"

	"dprof/internal/perfin"
	"dprof/internal/serve"
)

// The serve-mixed request deck. Everything the server receives — keys,
// seeds, measured lengths, perf.data captures and the arrival schedule — is
// generated here from the one workload seed, so a seed names one exact
// sequence of requests.

// Offered rates in requests per second, frozen at about one third and three
// quarters of the capacity measured with -probe-capacity on the commit that
// introduced the benchmark (2-CPU host, dprofd -workers 2).
var offeredRates = [2]float64{lowRate, highRate}

const (
	lowRate  = 95.0
	highRate = 215.0
)

// classBlock is the class mix, as counts in serveClasses order per block
// of 50 consecutive timed requests: 84% hit, 4% disk, 2% fork, 4% cold,
// 6% ingest.
var classBlock = []int{42, 2, 1, 2, 3}

// coldScenarios are the quick single-bottleneck scenarios the cold class
// draws from.
var coldScenarios = []string{"falseshare", "trueshare", "conflict", "alienping", "numaremote"}

// forkWorkload is the case-study workload whose checkpoints the fork class
// reuses. Apache forks cost 0.4-1.2 s each on a 2-vCPU host; with nproc
// connections two of them overlapping stall every other request, and the
// latency percentiles then spread by tens of percent between seeds.
const forkWorkload = "memcached"

const (
	hotKeys      = 12   // size of the hot head served from the LRU
	warmAddrs    = 12   // checkpoints captured in setup
	captureMs    = 1    // measured length of the capturing request, simulated ms
	forkMsLo     = 2    // shortest measured length a fork requests (above captureMs), simulated ms
	zipfS        = 1.1  // Zipf exponent of the hot-key draws
	ingestSample = 1500 // memory samples per perf.data capture
)

// request is one HTTP call of the deck.
type request struct {
	Class string
	Key   string // identity: equal keys must get byte-identical bodies
	Path  string
	Body  []byte
	Phase int           // 0 = low rate, 1 = high rate (timed requests only)
	Due   time.Duration // offset from the start of the timed phase
}

// deck is a seeded serve-mixed run: the requests set-up sends and the timed
// schedule.
type deck struct {
	Hot     []request // warmed into the LRU of the serving instance
	Disk    []request // written to the store by the prefill instance
	Capture []request // one per warm address: captures the checkpoints
	Timed   []request // the open-loop schedule, ascending by Due
}

// phaseLengths splits the measured phase: two thirds at the low rate,
// whose latencies are the end-to-end latency metrics, then a third at the
// high rate, whose served rate is the end-to-end throughput metric.
func phaseLengths(total time.Duration) [2]time.Duration {
	return [2]time.Duration{total - total/3, total / 3}
}

// buildDeck generates the deck for a run with the given low- and high-rate
// phase lengths. Each phase holds exactly rate x length requests, with
// class counts fixed by classBlock in a seeded order and arrivals on a
// seeded jittered grid (one arrival in each 1/rate slot), and the forks
// sample the grid of warm address x measured length without replacement.
// Seeds change which requests arrive when, not how much work a phase holds,
// which keeps runs on different seeds comparable.
func buildDeck(seed uint64, phases [2]time.Duration) *deck {
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	fresh := func() string { return fmt.Sprint(rng.Int64N(1 << 31)) }
	d := &deck{}

	for i := 0; i < hotKeys; i++ {
		d.Hot = append(d.Hot, profileRequest("hit", coldScenarios[i%len(coldScenarios)], fresh(), 0, twoViews))
	}
	var (
		classes [2][]string
		nforks  [2]int
	)
	for ph, rate := range offeredRates {
		classes[ph] = classMix(rng, int(math.Round(rate*phases[ph].Seconds())))
		for _, c := range classes[ph] {
			if c == "fork" {
				nforks[ph]++
			}
		}
	}
	var forks [2][]request
	d.Capture, forks = forkGrid(rng, fresh, nforks)

	hot := newZipf(hotKeys, zipfS)
	cold, disk := 0, 0
	var offset time.Duration
	for ph, rate := range offeredRates {
		slot := time.Duration(float64(time.Second) / rate)
		for i, class := range classes[ph] {
			var r request
			switch class {
			case "hit":
				r = d.Hot[draw(rng, hot)]
			case "disk":
				r = profileRequest("disk", coldScenarios[disk%len(coldScenarios)], fresh(), 0, twoViews)
				d.Disk = append(d.Disk, r)
				disk++
			case "fork":
				r, forks[ph] = forks[ph][0], forks[ph][1:]
			case "cold":
				r = profileRequest("cold", coldScenarios[cold%len(coldScenarios)], fresh(), 0, twoViews)
				cold++
			case "ingest":
				raw := capture(rng)
				r = request{Class: "ingest", Key: fmt.Sprintf("ingest/%x", sha256.Sum256(raw)), Path: "/ingest?views=dataprofile,missclass", Body: raw}
			}
			r.Phase = ph
			r.Due = offset + time.Duration(i)*slot + time.Duration(rng.Int64N(int64(slot)))
			d.Timed = append(d.Timed, r)
		}
		offset += phases[ph]
	}
	return d
}

// twoViews is the view set of the hit, disk and cold classes.
var twoViews = []string{"dataprofile", "missclass"}

// classMix returns n class labels: consecutive blocks that each hold the
// classBlock mix in seeded order, with the block's forks moved to its
// middle (the last block is cut short). Forks are the one class whose
// service time rivals the gap between arrivals, so spacing them evenly
// keeps a seed from bunching them into one burst that blocks both
// connections; seeds still decide every other position and every key.
func classMix(rng *rand.Rand, n int) []string {
	var block []string
	for i, c := range serveClasses {
		block = append(block, slices.Repeat([]string{c}, classBlock[i])...)
	}
	var out []string
	for len(out) < n {
		rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		rest := slices.DeleteFunc(slices.Clone(block), func(c string) bool { return c == "fork" })
		b := slices.Insert(rest, len(rest)/2, slices.Repeat([]string{"fork"}, len(block)-len(rest))...)
		out = append(out, b[:min(len(b), n-len(out))]...)
	}
	return out
}

// forkGrid draws the warm addresses, each a forkWorkload build with a
// fresh seed, and returns their capturing requests plus each phase's fork
// requests. The forks take the cheapest entries of the grid of warm address
// x measured length (lengths from forkMsLo up), each used once, dealt to
// the two phases in proportion so both see the same spread of lengths, then
// put in seeded order.
func forkGrid(rng *rand.Rand, fresh func() string, n [2]int) (captures []request, forks [2][]request) {
	seeds := make([]string, warmAddrs)
	for i := range seeds {
		seeds[i] = fresh()
		captures = append(captures, profileRequest("fork", forkWorkload, seeds[i], captureMs, nil))
	}
	total := n[0] + n[1]
	for k := 0; k < total; k++ {
		// Entry k is address k mod warmAddrs at length forkMsLo + k/warmAddrs.
		r := profileRequest("fork", forkWorkload, seeds[k%warmAddrs], uint64(forkMsLo+k/warmAddrs), nil)
		// Phase 0 takes the entry while it is behind its share so far.
		ph := 1
		if len(forks[1]) == n[1] || (len(forks[0]) < n[0] && len(forks[0])*total < n[0]*(k+1)) {
			ph = 0
		}
		forks[ph] = append(forks[ph], r)
	}
	for _, f := range forks {
		rng.Shuffle(len(f), func(a, b int) { f[a], f[b] = f[b], f[a] })
	}
	return captures, forks
}

// profileRequest builds a POST /profile call; measureMs 0 keeps the
// workload's quick window and nil views keep the server's default (all five).
func profileRequest(class, workload, seed string, measureMs uint64, views []string) request {
	body, err := json.Marshal(serve.ProfileRequest{
		Workload:  workload,
		Options:   map[string]string{"seed": seed},
		Views:     views,
		MeasureMs: measureMs,
	})
	if err != nil {
		panic(err) // plain data; cannot fail
	}
	return request{Class: class, Key: string(body), Path: "/profile", Body: body}
}

// newZipf returns the cumulative distribution of ranks 0..n-1 with weight
// 1/(k+1)^s.
func newZipf(n int, s float64) []float64 {
	cdf := make([]float64, n)
	var sum float64
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}

// draw samples an index from a cumulative distribution.
func draw(rng *rand.Rand, cdf []float64) int {
	u := rng.Float64()
	i, _ := slices.BinarySearch(cdf, u)
	return min(i, len(cdf)-1)
}

// perf.data sample_type bits and perf_mem_data_src fields (the kernel ABI
// values; the perfin package keeps its own copies unexported).
const (
	sampleType = 1<<0 | 1<<1 | 1<<2 | 1<<3 | 1<<7 | 1<<8 | 1<<14 | 1<<15 // ip tid time addr cpu period weight data_src
	opLoad     = 0x02
	opStore    = 0x04
	lvlHit     = 0x02
	lvlMiss    = 0x04
	lvlL1      = 0x08
	lvlL2      = 0x20
	lvlL3      = 0x40
	lvlLocRAM  = 0x80
	lvlRemRAM1 = 0x100
	snoopHitM  = 0x04
)

// capture generates a seeded `perf mem record`-shaped perf.data image: four
// CPUs over a code mapping, a write-shared ring and a read-mostly table.
func capture(rng *rand.Rand) []byte {
	const (
		codeBase = 0x400000
		ringBase = 0x7f0000000000
		tabBase  = 0x7f1000000000
	)
	w := perfin.NewFileWriter(sampleType)
	w.Mmap(codeBase, 0x4000, "benchd")
	w.Mmap2(ringBase, 0x100000, "ring_buffer")
	w.Mmap2(tabBase, 0x40000, "table.dat")
	t := uint64(1_000_000)
	for i := 0; i < ingestSample; i++ {
		t += 500 + uint64(rng.IntN(4000))
		s := perfin.SampleSpec{Time: t, CPU: uint32(rng.IntN(4))}
		switch rng.IntN(4) {
		case 0: // write-shared ring slot
			s.IP = codeBase + 0x100 + uint64(rng.IntN(8))*0x10
			s.Addr = ringBase + uint64(rng.IntN(64))*0x1000 + 0x40
			if rng.IntN(3) == 0 {
				s.DataSrc = perfin.DataSrc(opStore, lvlHit|lvlL1, 0)
			} else {
				s.DataSrc, s.Weight = perfin.DataSrc(opLoad, lvlHit|lvlL3, snoopHitM), uint64(150+rng.IntN(100))
			}
		case 1: // ring scan missing to memory
			s.IP = codeBase + 0x800 + uint64(rng.IntN(4))*0x10
			s.Addr = ringBase + uint64(rng.IntN(0x100000))&^7
			lvl := uint64(lvlMiss | lvlLocRAM)
			if rng.IntN(4) == 0 {
				lvl = lvlMiss | lvlRemRAM1
			}
			s.DataSrc, s.Weight = perfin.DataSrc(opLoad, lvl, 0), uint64(200+rng.IntN(200))
		default: // table lookups hitting L1/L2
			s.IP = codeBase + 0x2000 + uint64(rng.IntN(16))*0x10
			s.Addr = tabBase + uint64(rng.IntN(0x40000))&^7
			lvl := uint64(lvlHit | lvlL1)
			if rng.IntN(3) == 0 {
				lvl = lvlHit | lvlL2
			}
			s.DataSrc, s.Weight = perfin.DataSrc(opLoad, lvl, 0), uint64(4+rng.IntN(12))
		}
		w.Sample(s)
	}
	return w.Bytes()
}
