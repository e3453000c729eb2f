package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Class groups gateway endpoints by the work a request makes the
// server do: static bodies are precomputed at publish, the others are
// rendered per request.
type Class int

const (
	ClassStatic Class = iota // /v1/epoch, /v1/stats, /v1/ixps
	ClassMesh                // /v1/mesh
	ClassAS                  // /v1/as/<asn>
	ClassIXP                 // /v1/ixp/<name>
	ClassLink                // /v1/link?a=&b=
	numClasses
)

var classNames = [numClasses]string{"static", "mesh", "as", "ixp", "link"}

func (c Class) String() string { return classNames[c] }

// Req is one scheduled request of an open-loop run.
type Req struct {
	Due   time.Duration // offset from the run's start
	Class Class
	Path  string // path and query
	// Cond marks every second request to a URL: it revalidates with
	// If-None-Match carrying the last ETag seen for that URL.
	Cond bool
}

// Keys are the request targets, taken from the first snapshot served.
type Keys struct {
	ASes    []uint32    // in Zipf rank order
	IXPs    []string    // every IXP of /v1/ixps
	Present [][2]uint32 // linked pairs of the first mesh
	Absent  [][2]uint32 // unlinked pairs of mesh ASes
}

// Mix weights the request kinds of a workload, in percent.
type Mix struct {
	Epoch, Stats, IXPs, Mesh, AS, IXP, Link int
}

// ReadMix is serve-read's mix: 45% dynamic renders, 50% precomputed
// bodies, 5% full mesh.
var ReadMix = Mix{Epoch: 17, Stats: 17, IXPs: 16, Mesh: 5, AS: 15, IXP: 15, Link: 15}

// PollMix is churn-publish's mix: epoch and stats polls only.
var PollMix = Mix{Epoch: 50, Stats: 50}

// Generator draws requests from a seeded stream. The same seed, keys,
// mix and call sequence always give the same requests.
type Generator struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	keys *Keys
	mix  Mix
	seen map[string]int
}

// NewGenerator seeds a request stream over keys. keys may be nil when
// the mix has no per-key requests.
func NewGenerator(seed int64, keys *Keys, mix Mix) *Generator {
	g := &Generator{rng: rand.New(rand.NewSource(seed)), keys: keys, mix: mix, seen: map[string]int{}}
	if keys != nil && len(keys.ASes) > 1 {
		g.zipf = rand.NewZipf(g.rng, 1.1, 1, uint64(len(keys.ASes)-1))
	}
	return g
}

func (g *Generator) next() (Class, string) {
	m := g.mix
	x := g.rng.Intn(m.Epoch + m.Stats + m.IXPs + m.Mesh + m.AS + m.IXP + m.Link)
	switch {
	case x < m.Epoch:
		return ClassStatic, "/v1/epoch"
	case x < m.Epoch+m.Stats:
		return ClassStatic, "/v1/stats"
	case x < m.Epoch+m.Stats+m.IXPs:
		return ClassStatic, "/v1/ixps"
	case x < m.Epoch+m.Stats+m.IXPs+m.Mesh:
		return ClassMesh, "/v1/mesh"
	case x < m.Epoch+m.Stats+m.IXPs+m.Mesh+m.AS:
		return ClassAS, "/v1/as/" + strconv.FormatUint(uint64(g.keys.ASes[g.zipf.Uint64()]), 10)
	case x < m.Epoch+m.Stats+m.IXPs+m.Mesh+m.AS+m.IXP:
		return ClassIXP, "/v1/ixp/" + g.keys.IXPs[g.rng.Intn(len(g.keys.IXPs))]
	default:
		pairs := g.keys.Present
		if g.rng.Intn(2) == 1 {
			pairs = g.keys.Absent
		}
		p := pairs[g.rng.Intn(len(pairs))]
		return ClassLink, fmt.Sprintf("/v1/link?a=%d&b=%d", p[0], p[1])
	}
}

// draw returns the stream's next request, due at once.
func (g *Generator) draw() Req {
	c, path := g.next()
	g.seen[path]++
	return Req{Class: c, Path: path, Cond: g.seen[path]%2 == 0}
}

// Schedule returns an open-loop schedule at a constant offered rate
// for dur: request i is due at i/rate.
func (g *Generator) Schedule(rate float64, dur time.Duration) []Req {
	n := int(rate * dur.Seconds())
	out := make([]Req, n)
	for i := range out {
		out[i] = g.draw()
		out[i].Due = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return out
}

// Conn is one client connection of the generator. Each is used by one
// goroutine at a time, and its answers are checked in order by one
// checking goroutine, which lets it track the epochs it has seen.
type Conn struct {
	client    *http.Client
	lastEpoch uint64 // owned by the checking goroutine
	buf       bytes.Buffer
	checks    chan<- checkJob
}

// checkJob is one answer waiting for its output check.
type checkJob struct {
	r    Req
	resp *http.Response
	body []byte
}

// checkQueue bounds the answers a connection may have waiting for
// their checks before it stops sending.
const checkQueue = 256

// startChecks gives every connection a goroutine that runs the output
// checks on its answers, in order, off the path that sends requests: a
// check can take tens of milliseconds (a mesh under a new fingerprint
// is 1.7 MB of JSON to parse), and on the send path it would delay the
// connection's next requests and count in their latency. The returned
// function waits for every check and returns the failures by reason.
func (l *Load) startChecks() func() map[string]int {
	failed := map[string]int{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	queues := make([]chan checkJob, len(l.Conns))
	for i, c := range l.Conns {
		q := make(chan checkJob, checkQueue)
		queues[i], c.checks = q, q
		wg.Add(1)
		go func(c *Conn) {
			defer wg.Done()
			for j := range q {
				if err := l.Check.Check(c, j.r, j.resp, j.body); err != nil {
					name, _, _ := strings.Cut(err.Error(), ":")
					logDetail("%s %s: %v", j.r.Path, j.resp.Header.Get("ETag"), err)
					mu.Lock()
					failed["check:"+name]++
					mu.Unlock()
				}
			}
		}(c)
	}
	return func() map[string]int {
		for i, q := range queues {
			close(q)
			l.Conns[i].checks = nil
		}
		wg.Wait()
		return failed
	}
}

// addChecks counts failed output checks as failed requests.
func (st *RunStats) addChecks(failed map[string]int) {
	for k, n := range failed {
		st.Failed += n
		st.Reasons[k] += n
	}
}

// NewConns makes n single-connection clients.
func NewConns(n int, timeout time.Duration) []*Conn {
	out := make([]*Conn, n)
	for i := range out {
		out[i] = &Conn{client: &http.Client{
			Timeout: timeout,
			Transport: &http.Transport{
				DialContext:         (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		}}
	}
	return out
}

// CloseIdle drops the connections' idle sockets.
func CloseIdle(conns []*Conn) {
	for _, c := range conns {
		c.client.CloseIdleConnections()
	}
}

// Checker validates one response. It must be safe for concurrent use.
type Checker interface {
	Check(c *Conn, r Req, resp *http.Response, body []byte) error
}

// RunStats accounts for one open-loop run.
type RunStats struct {
	Attempted int // requests sent
	Failed    int // sent requests that failed
	Unsent    int // due requests never sent before the drain deadline
	// Lat is completion minus due time of every successful request.
	Lat     Dist
	ByClass [numClasses]Dist
	// Late is dispatch minus due time: how late the generator itself
	// ran, apart from any queueing behind busy connections.
	Late Dist
	// Backlog samples, at each dispatch, the requests due but not yet
	// sent.
	Backlog     []int
	Reasons     map[string]int
	Conditional int // requests sent with If-None-Match
	NotModified int // 304 answers
	BytesByCls  [numClasses]int64
}

type outcome struct {
	sent   bool
	failed string
	lat    time.Duration
	status int
	bytes  int
	cond   bool
}

// Headers carrying a traced request's ids to the server.
const (
	reqIDHeader  = "X-Bench-Req"
	spanIDHeader = "X-Bench-Span"
)

// ETags remembers the last ETag seen per URL for revalidation.
type ETags struct {
	mu sync.Mutex
	m  map[string]string
}

func (e *ETags) get(path string) string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.m[path]
}

func (e *ETags) put(path, tag string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.m == nil {
		e.m = map[string]string{}
	}
	e.m[path] = tag
}

// Load plays open-loop schedules against one gateway.
type Load struct {
	Base  string
	Conns []*Conn
	Check Checker
	// Drain bounds how long requests still queued when a schedule ends
	// may take to go out; the rest count as unsent.
	Drain time.Duration
	// Trace, when set, records a span per request under TraceParent and
	// sends the request and span ids to the server in headers.
	Trace       *Tracer
	TraceParent int64

	tags   ETags
	issued int64 // request ids handed out so far
}

// Run plays sched as an open loop: a dispatcher releases each request
// at its due time into a queue that the connections drain, so a slow
// server makes requests wait instead of slowing the schedule.
func (l *Load) Run(ctx context.Context, sched []Req) *RunStats {
	queue := make(chan int, len(sched)) // sized to the number of sends
	outs := make([]outcome, len(sched))
	late := make([]time.Duration, len(sched))
	backlog := make([]int, len(sched))
	dispatched := make([]bool, len(sched))
	var started atomic.Int64
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }
	firstID := l.issued
	l.issued += int64(len(sched))
	checked := l.startChecks()

	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range l.Conns {
		wg.Add(1)
		go func(c *Conn) {
			defer wg.Done()
			for i := range queue {
				select {
				case <-stop:
					continue
				default:
				}
				started.Add(1)
				outs[i] = l.do(ctx, c, sched[i], firstID+int64(i), start)
			}
		}(c)
	}

	for i, r := range sched {
		due := start.Add(r.Due)
		if d := time.Until(due); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
			case <-t.C:
			}
		}
		if ctx.Err() != nil {
			break
		}
		late[i] = time.Since(due)
		backlog[i] = i - int(started.Load())
		dispatched[i] = true
		queue <- i
	}
	close(queue)
	t := time.AfterFunc(l.Drain, halt)
	go func() {
		select {
		case <-ctx.Done():
			halt()
		case <-stop:
		}
	}()
	wg.Wait()
	t.Stop()
	halt()

	st := &RunStats{Reasons: map[string]int{}}
	st.addChecks(checked())
	for i, o := range outs {
		if !o.sent {
			if dispatched[i] {
				st.Unsent++
			}
			continue
		}
		st.Late.AddDur(late[i])
		st.Backlog = append(st.Backlog, backlog[i])
		st.add(sched[i], o)
	}
	return st
}

// add accounts for one sent request.
func (st *RunStats) add(r Req, o outcome) {
	st.Attempted++
	if o.cond {
		st.Conditional++
	}
	if o.status == http.StatusNotModified {
		st.NotModified++
	}
	if o.failed != "" {
		st.Failed++
		st.Reasons[o.failed]++
		return
	}
	st.Lat.AddDur(o.lat)
	st.ByClass[r.Class].AddDur(o.lat)
	st.BytesByCls[r.Class] += int64(o.bytes)
}

// RunClosed plays a closed loop for dur: every connection sends gen's
// next request as soon as its previous one is answered, so the rate is
// what the gateway sustains at the generator's concurrency. Latencies
// run from each request's send. It also returns the rate of successful
// answers in each of slices equal parts of dur.
func (l *Load) RunClosed(ctx context.Context, gen *Generator, dur time.Duration, slices int) (*RunStats, []float64) {
	st := &RunStats{Reasons: map[string]int{}}
	counts := make([]int, slices)
	var mu sync.Mutex // guards gen, st, counts and l.issued
	checked := l.startChecks()
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range l.Conns {
		wg.Add(1)
		go func(c *Conn) {
			defer wg.Done()
			for ctx.Err() == nil && time.Since(start) < dur {
				mu.Lock()
				r, id := gen.draw(), l.issued
				l.issued++
				mu.Unlock()
				o := l.do(ctx, c, r, id, time.Now())
				slice := int(time.Since(start) * time.Duration(slices) / dur)
				mu.Lock()
				st.add(r, o)
				if o.failed == "" && slice < slices {
					counts[slice]++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	st.addChecks(checked())
	rates := make([]float64, slices)
	for i, n := range counts {
		rates[i] = float64(n) / (dur.Seconds() / float64(slices))
	}
	return st, rates
}

// do sends one request and queues its answer for the connection's checks.
func (l *Load) do(ctx context.Context, c *Conn, r Req, id int64, start time.Time) outcome {
	o := outcome{sent: true}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, l.Base+r.Path, nil)
	if err != nil {
		o.failed = "request"
		return o
	}
	if r.Cond {
		if tag := l.tags.get(r.Path); tag != "" {
			req.Header.Set("If-None-Match", tag)
			o.cond = true
		}
	}
	var span int64
	if l.Trace != nil {
		span = l.Trace.NewID()
		req.Header.Set(reqIDHeader, strconv.FormatInt(id, 10))
		req.Header.Set(spanIDHeader, strconv.FormatInt(span, 10))
	}
	sent := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		o.failed = transportReason(err)
		return o
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	resp.Body.Close()
	done := time.Now()
	if l.Trace != nil {
		l.Trace.Record(span, l.TraceParent, "http.request."+r.Class.String(), id, sent, done)
	}
	o.lat = done.Sub(start.Add(r.Due))
	o.status = resp.StatusCode
	o.bytes = c.buf.Len()
	switch {
	case err != nil:
		o.failed = transportReason(err)
		return o
	case resp.StatusCode >= 500:
		o.failed = "5xx"
		return o
	case resp.StatusCode == http.StatusTooManyRequests:
		o.failed = "429"
		return o
	case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotModified:
		o.failed = "status-" + strconv.Itoa(resp.StatusCode)
		return o
	}
	if tag := resp.Header.Get("ETag"); tag != "" {
		l.tags.put(r.Path, tag)
	}
	c.checks <- checkJob{r: r, resp: resp, body: bytes.Clone(c.buf.Bytes())}
	return o
}

// logDetail prints the first few failure details to standard error;
// the counts per reason go into the result.
func logDetail(format string, args ...any) {
	if detailsLogged.Add(1) <= 10 {
		log.Printf(format, args...)
	}
}

var detailsLogged atomic.Int64

func transportReason(err error) string {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return "timeout"
	}
	return "transport"
}

// Growing reports whether a run's backlog grew: the median of its last
// third exceeds the median of its first third by more than an eighth
// of the samples, and by more than the conns requests the connections
// absorb. Below capacity the backlog hovers near zero apart from
// stalls, which a median over a third of the run mostly ignores and
// which drain again; a rate a fifth or more over capacity queues a
// growing share of what it offers.
func Growing(backlog []int, conns int) bool {
	n := len(backlog) / 3
	if n == 0 {
		return false
	}
	median := func(s []int) float64 {
		f := make([]float64, len(s))
		for i, v := range s {
			f[i] = float64(v)
		}
		return medianFloat(f)
	}
	return median(backlog[len(backlog)-n:])-median(backlog[:n]) > float64(max(conns, len(backlog)/8))
}

// Verdict says whether a rung met the service level: its tail (as
// SplitTail over parts pieces) within limitMS, no failed or unsent
// request, no growing backlog, and a generator that kept its schedule.
func (s *RunStats) Verdict(limitMS, lateLimitMS float64, conns, parts int) (bool, string) {
	tail, _ := s.Lat.SplitTail(parts)
	var why []string
	if s.Failed > 0 || s.Unsent > 0 {
		why = append(why, fmt.Sprintf("%d failed, %d unsent", s.Failed, s.Unsent))
	}
	if tail > limitMS {
		why = append(why, fmt.Sprintf("tail %.1f ms over %.0f ms", tail, limitMS))
	}
	if Growing(s.Backlog, conns) {
		why = append(why, "backlog growing")
	}
	if s.Late.Quantile(0.99) > lateLimitMS {
		why = append(why, fmt.Sprintf("generator late p99 %.1f ms", s.Late.Quantile(0.99)))
	}
	if s.Attempted == 0 {
		why = append(why, "no requests")
	}
	if len(why) == 0 {
		return true, "ok"
	}
	sort.Strings(why)
	return false, fmt.Sprint(why)
}

// MaxBacklog is the largest backlog sample.
func (s *RunStats) MaxBacklog() int {
	m := 0
	for _, v := range s.Backlog {
		if v > m {
			m = v
		}
	}
	return m
}
