package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// requestTimeout bounds one exchange; a reply that takes longer counts as
// failed.
const requestTimeout = 30 * time.Second

// conn is one closed-loop client: a kept-alive connection on which the next
// request is written only after the previous reply has been read in full.
// Requests are pre-built bytes and bodies drain into one fixed buffer (or
// the hash, for checked requests), so the generator's share of the two
// cores stays small.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	buf  []byte
	hash hash.Hash
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10), buf: make([]byte, 64<<10), hash: sha256.New()}, nil
}

func (c *conn) close() { c.c.Close() }

// updateReply is the part of POST /update's JSON body the benchmark reads.
type updateReply struct {
	Epoch   uint64 `json:"epoch"`
	Changed bool   `json:"changed"`
	Added   int    `json:"added"`
	Deleted int    `json:"deleted"`
	Carried int    `json:"carried"`
}

// do sends one request and reads the reply to its end. It returns an error
// for anything a client would count as a failure: transport error, timeout,
// a status other than 200 (503 shed included), a body that differs from the
// reference, or an update that did not take effect.
func (c *conn) do(q *request) (updateReply, error) {
	var up updateReply
	if err := c.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return up, err
	}
	if _, err := c.c.Write(q.raw); err != nil {
		return up, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return up, err
	}
	defer resp.Body.Close()
	switch {
	case q.kind == opUpdate:
		if err := json.NewDecoder(resp.Body).Decode(&up); err != nil && resp.StatusCode == http.StatusOK {
			return up, fmt.Errorf("%s: reading reply: %w", q.path, err)
		}
	case q.check:
		c.hash.Reset()
		if _, err := io.CopyBuffer(c.hash, resp.Body, c.buf); err != nil {
			return up, err
		}
	}
	// Whatever is left (an error page, a newline after the JSON) is read
	// too, so the connection can carry the next request.
	for {
		_, err := resp.Body.Read(c.buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			return up, err
		}
	}
	if resp.StatusCode != http.StatusOK {
		return up, fmt.Errorf("%s: status %d", q.path, resp.StatusCode)
	}
	if q.kind == opUpdate && (!up.Changed || up.Added+up.Deleted == 0) {
		return up, fmt.Errorf("%s: update did not take effect: %+v", q.path, up)
	}
	if q.check && q.kind != opUpdate {
		var got [32]byte
		c.hash.Sum(got[:0])
		if got != q.want {
			return up, fmt.Errorf("%s: body differs from the in-process extraction", q.path)
		}
	}
	return up, nil
}

// sseEvent is one event read from GET /subscribe.
type sseEvent struct {
	kind  string
	epoch uint64
	at    time.Time
}

// subscriber holds the receive-only SSE connection of update-mix.
type subscriber struct {
	resp   *http.Response
	events chan sseEvent // closed when the stream ends
	// deltas counts delta events, and inOrder stays true while their epochs
	// ascend; both are read after the stream has ended.
	deltas  int
	inOrder bool
}

func subscribe(addr, shape string) (*subscriber, error) {
	resp, err := http.Get("http://" + addr + "/subscribe?shape=" + shape)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("/subscribe: status %d", resp.StatusCode)
	}
	// The buffer holds a whole run's events: the reader must never block on
	// the scripted client, or the server would evict the subscriber.
	s := &subscriber{resp: resp, events: make(chan sseEvent, 4096), inOrder: true}
	go s.read()
	return s, nil
}

func (s *subscriber) read() {
	defer close(s.events)
	sc := bufio.NewScanner(s.resp.Body)
	sc.Buffer(make([]byte, 64<<10), 64<<20) // the opening snapshot is one long data line
	var ev sseEvent
	var last uint64
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			ev.epoch, _ = strconv.ParseUint(line[4:], 10, 64)
		case strings.HasPrefix(line, "event: "):
			ev.kind = line[7:]
		case line == "" && ev.kind != "":
			ev.at = time.Now()
			if ev.kind == "delta" {
				s.deltas++
				if ev.epoch <= last {
					s.inOrder = false
				}
				last = ev.epoch
			}
			s.events <- ev
			ev = sseEvent{}
		}
	}
}

// await returns the delta event of the given epoch. Every effective update
// must produce exactly one, in epoch order, so the next delta read has to
// be it; a bye, another epoch or ten seconds of silence is a failure.
func (s *subscriber) await(epoch uint64) (time.Time, error) {
	timeout := time.After(10 * time.Second)
	for {
		select {
		case ev, ok := <-s.events:
			switch {
			case !ok:
				return time.Time{}, errors.New("subscribe: stream ended")
			case ev.kind == "snapshot":
				continue
			case ev.kind != "delta":
				return time.Time{}, fmt.Errorf("subscribe: %s event", ev.kind)
			case ev.epoch != epoch:
				return time.Time{}, fmt.Errorf("subscribe: delta for epoch %d, want %d", ev.epoch, epoch)
			}
			return ev.at, nil
		case <-timeout:
			return time.Time{}, fmt.Errorf("subscribe: no delta for epoch %d within 10s", epoch)
		}
	}
}

// close ends the stream and waits for the reader.
func (s *subscriber) close() {
	s.resp.Body.Close()
	for range s.events {
	}
}

// tally is what one phase observed: per kind the latencies of successful
// requests in milliseconds and the attempted and failed counts, plus the
// update → SSE delta lags.
type tally struct {
	lat       [numKinds][]float64
	attempted [numKinds]int
	failed    [numKinds]int
	lag       []float64
	carried   int // Σ carried over update replies
	firstErr  error
}

func (t *tally) merge(o *tally) {
	for k := range t.lat {
		t.lat[k] = append(t.lat[k], o.lat[k]...)
		t.attempted[k] += o.attempted[k]
		t.failed[k] += o.failed[k]
	}
	t.lag = append(t.lag, o.lag...)
	t.carried += o.carried
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

func (t *tally) totals() (attempted, failed int) {
	for k := range t.attempted {
		attempted += t.attempted[k]
		failed += t.failed[k]
	}
	return
}

func (t *tally) fail(k opKind, err error) {
	t.attempted[k]++
	t.failed[k]++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// play sends one list on one connection. After a failure the connection is
// replaced, so one bad reply does not fail the rest of the list.
func play(c **conn, addr string, list []request, sub *subscriber, t *tally) {
	for i := range list {
		q := &list[i]
		if *c == nil {
			nc, err := dial(addr)
			if err != nil {
				t.fail(q.kind, err)
				continue
			}
			*c = nc
		}
		begin := time.Now()
		up, err := (*c).do(q)
		end := time.Now()
		if err == nil && q.kind == opUpdate && sub != nil {
			var at time.Time
			if at, err = sub.await(up.Epoch); err == nil {
				t.lag = append(t.lag, ms(at.Sub(begin)))
			}
		}
		if err != nil {
			t.fail(q.kind, err)
			(*c).close()
			*c = nil
			continue
		}
		t.attempted[q.kind]++
		t.carried += up.Carried
		t.lat[q.kind] = append(t.lat[q.kind], ms(end.Sub(begin)))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// roundStat is one timed round: what its requests observed, its wall time,
// and the server CPU time spent during it.
type roundStat struct {
	tally
	wall time.Duration
	cpu  time.Duration
}

func (r *roundStat) ops() int {
	a, f := r.totals()
	return a - f
}

// quietHalf returns the faster half of the rounds (rounded up). Every round
// does the same work, and on a shared machine interference only ever slows
// a round down, so the faster half is the half least disturbed; the
// end-to-end metrics are computed over it.
func quietHalf(rounds []roundStat) []roundStat {
	s := append([]roundStat(nil), rounds...)
	sort.Slice(s, func(i, j int) bool { return s[i].wall < s[j].wall })
	return s[:(len(s)+1)/2]
}

// sumRounds adds rounds up into one.
func sumRounds(rounds []roundStat) *roundStat {
	total := &roundStat{}
	for i := range rounds {
		total.merge(&rounds[i].tally)
		total.wall += rounds[i].wall
		total.cpu += rounds[i].cpu
	}
	return total
}
