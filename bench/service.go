package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/interp"
	"repro/internal/progen"
	"repro/internal/service"
)

// service-mix is the daemon: an in-process service.New with the default
// config behind a loopback listener, driven over HTTP POST /v1/analyze.
// Every request carries its program's own eight profiling seeds and the
// default engine and plan. Four of every five requests go to 48 hot
// generated programs, a working set that fits the service's 128-entry LRU
// and is the same in every run, as a deployment's steady set of programs
// would be; the fifth is a program never seen before, so it compiles cold.
// The run seed picks the request order, the never-seen programs and the
// arrivals. The daemon's queueing, LRU, HTTP and JSON layers join the
// pipeline here, and the tail is set by the cold compiles, which are the
// planner.
//
// The run has three phases. Two are open loops, one at rateLow and one at
// rateHigh, with seeded Poisson arrivals; each request is timed from when
// it was due. The third is a closed loop with nproc clients, which gives
// the capacity and the end-to-end latencies. The load comes from this
// process alone, with nproc sender goroutines and at most nproc
// connections.

const (
	hotPrograms               = 48
	serviceSize, serviceDepth = 80, 3
	serviceSeeds              = 8
	coldEvery                 = 5 // every coldEvery-th request is a never-seen program
	// rateLow and rateHigh are the open-loop arrival rates in requests per
	// second, about 25% and 60% of the closed-loop capacity measured on a
	// 2-core host when the benchmark was introduced. They are constants so
	// both sides of a comparison are offered the same load.
	rateLow, rateHigh = 35.0, 83.0
	// The phases' shares of the measuring time; the closed loop, which
	// gives the end-to-end metrics, gets the rest.
	lowShare, highShare = 0.25, 0.15
)

// svcEnv is one running service and a client for it.
type svcEnv struct {
	srv    *http.Server
	client *http.Client
	url    string
	hot    [][]byte // request bodies of the hot programs
	done   chan struct{}
}

// svcRequest is one request: its body and which distinct source it holds
// (a hot index, or hotPrograms plus a cold index).
type svcRequest struct {
	body []byte
	key  int
	cold bool
}

// svcSample is one answered request.
type svcSample struct {
	req    svcRequest
	ms     float64 // from due (open loop) or sent (closed loop) to the full response
	waitMs float64 // from due to sent
	rttMs  float64 // from sent to the full response
	lateMs float64 // how late the generator dispatched it
	time   float64 // TIME(START) of the main program
	status int
	hit    bool
	spans  map[string]float64
	err    error
}

func newSvcEnv(nproc int, hot [][]byte) (*svcEnv, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &svcEnv{
		srv: &http.Server{Handler: service.New(service.Config{})},
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     nproc,
			MaxIdleConnsPerHost: nproc,
		}},
		url:  "http://" + ln.Addr().String() + "/v1/analyze",
		hot:  hot,
		done: make(chan struct{}),
	}
	go func() {
		defer close(e.done)
		e.srv.Serve(ln)
	}()
	return e, nil
}

// close stops the server and waits for it to exit.
func (e *svcEnv) close() {
	e.srv.Shutdown(context.Background())
	<-e.done
	e.client.CloseIdleConnections()
}

// program returns the source and profiling seeds of distinct program key:
// hot program key when key < hotPrograms, the same in every run, and
// otherwise never-seen program key-hotPrograms of the run with this seed.
// Each program has its own seeds, so no one seed set shifts every request
// of a run.
func program(seed uint64, key int) (string, []uint64) {
	g := mix(0, streamServiceHot, key)
	if key >= hotPrograms {
		g = mix(seed, streamServiceCold, key-hotPrograms)
	}
	return progen.Generate(g, serviceSize, serviceDepth), profileSeeds(g, streamServiceSeeds, serviceSeeds)
}

// requestAt returns request number k of the run.
func requestAt(seed uint64, k int, hot [][]byte) (svcRequest, error) {
	if k%coldEvery == coldEvery-1 {
		key := hotPrograms + k/coldEvery
		body, err := requestBody(program(seed, key))
		return svcRequest{body: body, key: key, cold: true}, err
	}
	h := int(mix(seed, streamServicePick, k) % uint64(len(hot)))
	return svcRequest{body: hot[h], key: h}, nil
}

func requestBody(src string, seeds []uint64) ([]byte, error) {
	return json.Marshal(service.AnalyzeRequest{Source: src, Seeds: seeds})
}

// send posts one request and checks the answer: status 200, no error
// diagnostics, and an estimate for the main program.
func (e *svcEnv) send(req svcRequest, s *svcSample) {
	resp, err := e.client.Post(e.url, "application/json", bytes.NewReader(req.body))
	if err != nil {
		s.err = err
		return
	}
	defer resp.Body.Close()
	s.status = resp.StatusCode
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		s.err = err
		return
	}
	if resp.StatusCode != http.StatusOK {
		s.err = fmt.Errorf("status %d: %.200s", resp.StatusCode, body)
		return
	}
	var out service.AnalyzeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		s.err = err
		return
	}
	if out.Errors != 0 {
		s.err = fmt.Errorf("%d error diagnostics", out.Errors)
		return
	}
	s.time = math.NaN()
	for _, pr := range out.Procs {
		if pr.Name == out.Main {
			s.time = pr.Estimate["time"]
		}
	}
	if math.IsNaN(s.time) {
		s.err = fmt.Errorf("no estimate for the main program")
		return
	}
	s.hit = out.CacheHit
	s.spans = make(map[string]float64, len(out.Spans))
	for _, sp := range out.Spans {
		s.spans[sp.Name] = sp.WallMs
	}
}

// arrivals returns seeded Poisson arrival offsets at rate per second over
// d seconds; stream k0 numbers the draws.
func arrivals(seed uint64, k0 int, rate, d float64) []time.Duration {
	var out []time.Duration
	t := 0.0
	for k := k0; ; k++ {
		u := (float64(mix(seed, streamServiceArrivals, k)>>11) + 1) / (1 << 53)
		t += -math.Log(u) / rate
		if t >= d {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// openLoop sends reqs at the given offsets from now, whatever the state of
// earlier requests, through nproc senders.
func (e *svcEnv) openLoop(reqs []svcRequest, at []time.Duration, nproc int) []svcSample {
	samples := make([]svcSample, len(reqs))
	due := make([]time.Time, len(reqs))
	queue := make(chan int, len(reqs)) // holds the whole phase, so the generator never blocks
	var wg sync.WaitGroup
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				s := &samples[i]
				s.req = reqs[i]
				sent := time.Now()
				e.send(reqs[i], s)
				s.ms = msSince(due[i])
				s.waitMs = float64(sent.Sub(due[i])) / float64(time.Millisecond)
				s.rttMs = msSince(sent)
			}
		}()
	}
	start := time.Now()
	for i := range reqs {
		due[i] = start.Add(at[i])
		time.Sleep(time.Until(due[i]))
		samples[i].lateMs = msSince(due[i])
		queue <- i
	}
	close(queue)
	wg.Wait()
	return samples
}

// closedLoop runs nproc clients, each sending its next request when the
// last one is answered, until d seconds have passed. Requests are numbered
// from k0. It returns the samples and the completed requests per second.
func (e *svcEnv) closedLoop(seed uint64, k0 int, d float64, nproc int) ([]svcSample, float64, error) {
	var next atomic.Int64
	next.Store(int64(k0))
	var mu sync.Mutex
	var samples []svcSample
	var firstErr error
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start).Seconds() < d {
				req, err := requestAt(seed, int(next.Add(1)-1), e.hot)
				if err != nil {
					mu.Lock()
					firstErr = err
					mu.Unlock()
					return
				}
				s := svcSample{req: req}
				sent := time.Now()
				e.send(req, &s)
				s.ms = msSince(sent)
				s.rttMs = s.ms
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return samples, float64(len(samples)) / time.Since(start).Seconds(), firstErr
}

func runServiceMix(c runCfg, o *outcome) error {
	nproc := runtime.GOMAXPROCS(0)
	nhot := hotPrograms
	if c.quick {
		nhot = 4
	}
	hot := make([][]byte, nhot)
	for i := range hot {
		var err error
		if hot[i], err = requestBody(program(c.seed, i)); err != nil {
			return err
		}
	}

	// Set-up starts the service and compiles every hot program into its
	// LRU, from nproc clients.
	var env *svcEnv
	defer func() {
		if env != nil {
			env.close()
		}
	}()
	err := o.setup(func() error {
		if env != nil {
			env.close()
		}
		var err error
		if env, err = newSvcEnv(nproc, hot); err != nil {
			return err
		}
		reqs := make([]svcRequest, len(hot))
		at := make([]time.Duration, len(hot))
		for i := range hot {
			reqs[i] = svcRequest{body: hot[i], key: i}
		}
		for _, s := range env.openLoop(reqs, at, nproc) {
			if s.err != nil {
				return s.err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Phases. Request numbering runs on across phases, so cold programs are
	// never repeated.
	var low, high, capacity []svcSample
	k := 0
	phase := func(rate, share float64) ([]svcSample, error) {
		at := arrivals(c.seed, k, rate, share*c.seconds)
		if c.quick {
			at = at[:0]
			for i := 0; i < 2*coldEvery; i++ {
				at = append(at, time.Duration(i)*time.Millisecond)
			}
		}
		reqs := make([]svcRequest, len(at))
		for i := range reqs {
			var err error
			if reqs[i], err = requestAt(c.seed, k+i, hot); err != nil {
				return nil, err
			}
		}
		k += len(reqs)
		return env.openLoop(reqs, at, nproc), nil
	}
	if low, err = phase(rateLow, lowShare); err != nil {
		return err
	}
	if high, err = phase(rateHigh, highShare); err != nil {
		return err
	}
	d := (1 - lowShare - highShare) * c.seconds
	if c.quick {
		d = 0.2
	}
	capacity, capRate, err := env.closedLoop(c.seed, k, d, nproc)
	if err != nil {
		return err
	}

	// Checks: every answer well-formed, and every distinct source's TIME
	// equal to that of an in-process uncached pipeline.
	times := make(map[int]float64)
	all := append(append(append([]svcSample(nil), low...), high...), capacity...)
	for i, s := range all {
		o.attempted++
		if s.err != nil {
			o.opFailed(i, s.err)
			continue
		}
		if t, ok := times[s.req.key]; ok && t != s.time {
			o.opFailed(i, fmt.Errorf("program %d: TIME %v, earlier answer %v", s.req.key, s.time, t))
			continue
		}
		times[s.req.key] = s.time
	}
	keys := make([]int, 0, len(times))
	for key := range times {
		keys = append(keys, key)
	}
	sort.Ints(keys)
	refs := make([]float64, len(keys))
	errs := make([]error, len(keys))
	lt := layerTimes{}
	if c.trace {
		// One at a time, so the layer times are not contended.
		for i, key := range keys {
			src, seeds := program(c.seed, key)
			refs[i], errs[i] = tracedReference(src, seeds, nproc, lt)
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int, len(keys)) // holds every index, so sends never block
		for i := range keys {
			next <- i
		}
		close(next)
		for w := 0; w < nproc; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					refs[i], errs[i] = referenceTime(program(c.seed, keys[i]))
				}
			}()
		}
		wg.Wait()
	}
	for i, key := range keys {
		err := errs[i]
		if err == nil && refs[i] != times[key] {
			err = fmt.Errorf("TIME %v, uncached pipeline %v", times[key], refs[i])
		}
		if err != nil {
			o.problem("program %d: %v", key, err)
		}
	}

	open := append(append([]svcSample(nil), low...), high...)
	if !c.trace {
		// The end-to-end latencies are the closed loop's: over a thousand
		// requests a run, at a steady contention. The open loops' medians
		// moved with how many hot requests happened to overlap a cold
		// compile, 9% from run to run at 35 req/s; the traced run reports
		// them.
		o.latencies(sampleMs(capacity, nil))
		o.metrics["ops_per_s"] = capRate
		return nil
	}

	lt.addMeans(o.metrics, len(times))
	// Every response carries its spans, so tracing adds no work on the
	// request path. The overhead compares the two halves of the closed
	// loop by request parity, which shows the noise floor.
	o.traceOverhead(sampleMs(capacity, func(i int) bool { return i%2 == 0 }),
		sampleMs(capacity, func(i int) bool { return i%2 == 1 }))
	var n, cold, coldCompile, hits, shed float64
	var spanSum, rtt, wait, late float64
	sums := make(map[string]float64)
	for _, s := range all {
		if s.status == http.StatusServiceUnavailable {
			shed++
		}
		if s.err != nil {
			continue
		}
		n++
		if s.hit {
			hits++
		}
		for name, ms := range s.spans {
			sums[name] += ms
			spanSum += ms
		}
		if s.req.cold {
			cold++
			coldCompile += s.spans["compile"]
		}
		rtt += s.rttMs
	}
	var nOpen float64
	for _, s := range open {
		if s.err == nil {
			nOpen++
			wait += s.waitMs
			late += s.lateMs
		}
	}
	o.metrics["service.queue_wait_ms"] = sums["queue_wait"] / n
	o.metrics["service.compile_ms"] = coldCompile / math.Max(cold, 1)
	o.metrics["service.profile_ms"] = sums["profile"] / n
	o.metrics["service.estimate_ms"] = sums["estimate"] / n
	o.metrics["service.cache_hit_rate"] = hits / n
	o.metrics["service.shed"] = shed
	o.metrics["http.overhead_ms"] = (rtt - spanSum) / n
	o.metrics["trace.layer_coverage"] = spanSum / rtt
	o.metrics["client.wait_ms"] = wait / math.Max(nOpen, 1)
	o.metrics["loadgen.lateness_ms"] = late / math.Max(nOpen, 1)
	lowMs, highMs := sorted(sampleMs(low, nil)), sorted(sampleMs(high, nil))
	o.metrics["loadgen.p50_ms.low"] = quantile(lowMs, 0.5)
	o.metrics["loadgen.p90_ms.low"] = quantile(lowMs, 0.9)
	o.metrics["loadgen.p50_ms.high"] = quantile(highMs, 0.5)
	o.metrics["loadgen.p90_ms.high"] = quantile(highMs, 0.9)
	o.metrics["loadgen.capacity_per_s"] = capRate
	return nil
}

// sampleMs returns the latencies of the answered samples whose index keep
// accepts (all when keep is nil).
func sampleMs(samples []svcSample, keep func(int) bool) []float64 {
	var out []float64
	for i, s := range samples {
		if s.err == nil && (keep == nil || keep(i)) {
			out = append(out, s.ms)
		}
	}
	return out
}

// referenceTime is TIME(START) from an in-process uncached pipeline.
func referenceTime(src string, seeds []uint64) (float64, error) {
	p, err := core.LoadOpts(src, core.LoadOptions{Engine: interp.EngineTree, Plan: core.StrategySarkar})
	if err != nil {
		return 0, err
	}
	est, err := p.Estimate(cost.Optimized, core.Options{}, seeds...)
	if err != nil {
		return 0, err
	}
	return est.Main.Time, nil
}

// tracedReference is referenceTime through the traced replica, so the
// traced run also splits the service's programs into layers.
func tracedReference(src string, seeds []uint64, workers int, l layerTimes) (float64, error) {
	fe, err := tracedFrontEnd(src, workers, l)
	if err != nil {
		return 0, err
	}
	profile, _, err := tracedProfile(fe.res, fe.plans, seeds, workers, l)
	if err != nil {
		return 0, err
	}
	est, err := tracedEstimate(fe.an, fe.plans, profile, l)
	if err != nil {
		return 0, err
	}
	return est.Main.Time, nil
}
