package main

import (
	"fmt"
	"sync"
	"time"
)

// session is the client side of one run against a server at addr: the
// untimed warm-up, the SSE connection and the before/after read of the
// subscribed fragment on update-mix, and the timed rounds.
type session struct {
	addr    string
	in      *inputs
	untimed *conn
	sub     *subscriber
	bracket []request
	all     tally // every request sent, timed or not
}

// openSession computes the reference bodies, warms the server up and, for a
// workload with a subscriber, reads the subscribed fragment and opens the
// stream.
func openSession(addr string, in *inputs, ref *reference) (*session, error) {
	for _, list := range in.round {
		if err := ref.fill(list); err != nil {
			return nil, err
		}
	}
	s := &session{addr: addr, in: in}
	play(&s.untimed, addr, in.warmup, nil, &s.all)
	if in.subscribe == "" {
		return s, nil
	}
	// The round's deletes undo its adds, so the subscribed fragment must
	// read the same before the first update and after the last.
	q := fragmentRequest(in.subscribe)
	var err error
	if q.want, err = ref.fragment(in.subscribe); err != nil {
		return nil, err
	}
	s.bracket = []request{q}
	play(&s.untimed, addr, s.bracket, nil, &s.all)
	if s.sub, err = subscribe(addr, in.subscribe); err != nil {
		return nil, err
	}
	return s, nil
}

// timed repeats the round — every client plays its list once, all starting
// together — until at least d has passed, and at least once. Whole rounds
// keep the mix of work identical from round to round and from run to run
// whatever the server's speed. cpu, when not nil, reads the server's CPU
// time; stop ends the phase early.
func (s *session) timed(d time.Duration, cpu func() time.Duration, stop func() bool) []roundStat {
	lists := s.in.round
	conns := make([]*conn, len(lists))
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.close()
			}
		}
	}()
	var rounds []roundStat
	begin := time.Now()
	for len(rounds) == 0 || time.Since(begin) < d {
		if stop() {
			break
		}
		parts := make([]tally, len(lists))
		var wg sync.WaitGroup
		var rs roundStat
		if cpu != nil {
			rs.cpu = -cpu()
		}
		start := time.Now()
		for i := range lists {
			wg.Add(1)
			go func() {
				defer wg.Done()
				play(&conns[i], s.addr, lists[i], s.sub, &parts[i])
			}()
		}
		wg.Wait()
		rs.wall = time.Since(start)
		if cpu != nil {
			rs.cpu += cpu()
		}
		for i := range parts {
			rs.merge(&parts[i])
		}
		s.all.merge(&rs.tally)
		rounds = append(rounds, rs)
	}
	return rounds
}

// close ends the session. It returns what is wrong with the run beyond
// failed requests — the subscriber must have seen exactly one delta per
// effective update, epochs ascending — or "" if nothing is.
func (s *session) close() string {
	defer func() {
		if s.untimed != nil {
			s.untimed.close()
		}
	}()
	if s.sub == nil {
		return ""
	}
	play(&s.untimed, s.addr, s.bracket, nil, &s.all)
	s.sub.close()
	updates := s.all.attempted[opUpdate] - s.all.failed[opUpdate]
	if s.sub.deltas != updates || !s.sub.inOrder {
		return fmt.Sprintf("%d SSE deltas for %d effective updates, epochs ascending: %v", s.sub.deltas, updates, s.sub.inOrder)
	}
	return ""
}
