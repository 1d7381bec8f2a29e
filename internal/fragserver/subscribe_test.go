package fragserver

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"shaclfrag/internal/datagen"
	"shaclfrag/internal/schema"
)

// sseEvent is one parsed Server-Sent Event; heartbeat comments surface as
// {event: "comment"} so tests can assert liveness.
type sseEvent struct {
	id, event, data string
}

// sseStream reads a /subscribe response in a goroutine, delivering parsed
// events on a channel (closed when the stream ends).
type sseStream struct {
	events <-chan sseEvent
	cancel context.CancelFunc
}

func openStream(t *testing.T, ts *httptest.Server, path, lastEventID string) *sseStream {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+path, nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body := readAll(t, resp)
		resp.Body.Close()
		cancel()
		t.Fatalf("GET %s: %d\n%s", path, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	ch := make(chan sseEvent, 64)
	go func() {
		defer close(ch)
		defer resp.Body.Close()
		br := bufio.NewReader(resp.Body)
		var ev sseEvent
		for {
			raw, err := br.ReadString('\n')
			if err != nil {
				return
			}
			line := strings.TrimRight(raw, "\r\n")
			switch {
			case strings.HasPrefix(line, ":"):
				ch <- sseEvent{event: "comment", data: strings.TrimSpace(line[1:])}
			case line == "":
				if ev != (sseEvent{}) {
					ch <- ev
					ev = sseEvent{}
				}
			case strings.HasPrefix(line, "id: "):
				ev.id = line[len("id: "):]
			case strings.HasPrefix(line, "event: "):
				ev.event = line[len("event: "):]
			case strings.HasPrefix(line, "data: "):
				ev.data = line[len("data: "):]
			}
		}
	}()
	st := &sseStream{events: ch, cancel: cancel}
	t.Cleanup(cancel)
	return st
}

// next returns the next non-heartbeat event.
func (st *sseStream) next(t *testing.T) (sseEvent, bool) {
	t.Helper()
	for {
		select {
		case ev, ok := <-st.events:
			if !ok {
				return sseEvent{}, false
			}
			if ev.event == "comment" {
				continue
			}
			return ev, true
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for an SSE event")
		}
	}
}

type ssePayload struct {
	Epoch   uint64   `json:"epoch"`
	Added   []string `json:"added"`
	Removed []string `json:"removed"`
}

func ssePayloadOf(t *testing.T, ev sseEvent) ssePayload {
	t.Helper()
	var p ssePayload
	if err := json.Unmarshal([]byte(ev.data), &p); err != nil {
		t.Fatalf("event data %q: %v", ev.data, err)
	}
	return p
}

const lineCF = "<http://ex/c> <http://ex/p> <http://ex/f> ."

// TestSubscribeLifecycle is the end-to-end subscription path: snapshot on
// connect, one delta per effective update, disconnect, then resume via
// Last-Event-ID replaying exactly the missed epochs. Run with -race.
func TestSubscribeLifecycle(t *testing.T) {
	srv, ts := newUpdateTestServer(t, Config{})

	st := openStream(t, ts, "/subscribe?shape=S", "")
	ev, ok := st.next(t)
	if !ok || ev.event != "snapshot" || ev.id != "1" {
		t.Fatalf("first event: %+v ok=%v", ev, ok)
	}
	snap := ssePayloadOf(t, ev)
	if len(snap.Added) != 2 || len(snap.Removed) != 0 {
		t.Fatalf("snapshot payload: %+v", snap)
	}

	// An update touching one component streams exactly its delta.
	if resp, body := post(t, ts, "/update", lineAE); resp.StatusCode != http.StatusOK {
		t.Fatalf("update: %d\n%s", resp.StatusCode, body)
	}
	ev, _ = st.next(t)
	if ev.event != "delta" || ev.id != "2" {
		t.Fatalf("delta event: %+v", ev)
	}
	if p := ssePayloadOf(t, ev); len(p.Added) != 1 || p.Added[0] != lineAE || len(p.Removed) != 0 {
		t.Fatalf("delta payload: %+v", p)
	}

	// A no-op update streams nothing (the next event must be epoch 3's).
	post(t, ts, "/update", lineAE)

	// Disconnect, miss an epoch, resume from the last seen id.
	st.cancel()
	if resp, body := post(t, ts, "/update", lineCF); resp.StatusCode != http.StatusOK {
		t.Fatalf("offline update: %d\n%s", resp.StatusCode, body)
	}
	st2 := openStream(t, ts, "/subscribe?shape=S", "2")
	ev, _ = st2.next(t)
	if ev.event != "delta" || ev.id != "3" {
		t.Fatalf("resume replayed %+v, want the missed epoch-3 delta (no snapshot)", ev)
	}
	if p := ssePayloadOf(t, ev); len(p.Added) != 1 || p.Added[0] != lineCF {
		t.Fatalf("resumed delta payload: %+v", p)
	}
	// The resumed stream is live: a further update arrives as epoch 4.
	post(t, ts, "/update", "<http://ex/a> <http://ex/p> <http://ex/g> .")
	if ev, _ = st2.next(t); ev.event != "delta" || ev.id != "4" {
		t.Fatalf("post-resume delta: %+v", ev)
	}

	// The subscription series made it to /metrics.
	_, metrics := get(t, ts, "/metrics")
	if got := metricValue(t, metrics, "fragserver_subscriptions_total"); got < 2 {
		t.Errorf("subscriptions_total = %v, want >= 2", got)
	}
	if got := labeledMetricValue(t, metrics, "fragserver_live_events_total", `type="snapshot"`); got < 1 {
		t.Errorf("live snapshot events = %v, want >= 1", got)
	}
	if got := srv.live.Stats().Resumed; got != 1 {
		t.Errorf("resumed = %d, want 1", got)
	}
}

// TestSubscribeResumeBelowFloor: a Last-Event-ID older than the replay
// ring yields a fresh snapshot, not a partial replay.
func TestSubscribeResumeBelowFloor(t *testing.T) {
	_, ts := newUpdateTestServer(t, Config{SubscribeReplay: 1})
	st := openStream(t, ts, "/subscribe?shape=S", "")
	st.next(t) // snapshot materializes the fragment
	st.cancel()
	for _, o := range []string{"e", "f", "g"} { // epochs 2, 3, 4; ring keeps only 4
		post(t, ts, "/update", "<http://ex/a> <http://ex/p> <http://ex/"+o+"> .")
	}
	st2 := openStream(t, ts, "/subscribe?shape=S", "2")
	ev, _ := st2.next(t)
	if ev.event != "snapshot" || ev.id != "4" {
		t.Fatalf("below-floor resume: %+v, want a full epoch-4 snapshot", ev)
	}
	if p := ssePayloadOf(t, ev); len(p.Added) != 5 {
		t.Fatalf("snapshot has %d lines, want 5", len(p.Added))
	}
}

// TestSubscribeDrainTerminal: drain closes the stream with a terminal bye
// event naming the reason, and new subscriptions are refused with 503.
func TestSubscribeDrainTerminal(t *testing.T) {
	srv, ts := newUpdateTestServer(t, Config{})
	st := openStream(t, ts, "/subscribe?shape=S", "")
	if ev, _ := st.next(t); ev.event != "snapshot" {
		t.Fatalf("first event: %+v", ev)
	}
	srv.live.Drain()
	ev, ok := st.next(t)
	if !ok || ev.event != "bye" || !strings.Contains(ev.data, `"drain"`) {
		t.Fatalf("terminal event: %+v ok=%v", ev, ok)
	}
	if _, ok := st.next(t); ok {
		t.Fatal("stream still open after bye")
	}
	resp, body := get(t, ts, "/subscribe?shape=S")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("subscribe during drain: %d\n%s", resp.StatusCode, body)
	}
}

// TestSubscribeValidation covers the request-validation and limit paths.
func TestSubscribeValidation(t *testing.T) {
	_, ts := newUpdateTestServer(t, Config{MaxSubscribers: 1})
	for _, tc := range []struct {
		name, path, lei string
		want            int
	}{
		{"missing shape", "/subscribe", "", http.StatusBadRequest},
		{"unknown shape", "/subscribe?shape=nope", "", http.StatusNotFound},
	} {
		resp, body := get(t, ts, tc.path)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: got %d, want %d\n%s", tc.name, resp.StatusCode, tc.want, body)
		}
	}
	// Bad Last-Event-ID.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/subscribe?shape=S", nil)
	req.Header.Set("Last-Event-ID", "not-a-number")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad Last-Event-ID: %d, want 400", resp.StatusCode)
	}
	// A stream is opened by GET; any other method is answered like on
	// every other route.
	if resp, _ := post(t, ts, "/subscribe?shape=S", ""); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /subscribe: %d, want 405", resp.StatusCode)
	}
	// The subscriber bound: one stream holds the only slot, the next gets
	// 503 + Retry-After.
	st := openStream(t, ts, "/subscribe?shape=S", "")
	st.next(t)
	resp, _ = get(t, ts, "/subscribe?shape=S")
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Errorf("over-limit subscribe: %d (Retry-After %q), want 503", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// TestSubscribeHeartbeat: an idle stream stays audibly alive.
func TestSubscribeHeartbeat(t *testing.T) {
	_, ts := newUpdateTestServer(t, Config{Heartbeat: 20 * time.Millisecond})
	st := openStream(t, ts, "/subscribe?shape=S", "")
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev, ok := <-st.events:
			if !ok {
				t.Fatal("stream closed while waiting for a heartbeat")
			}
			if ev.event == "comment" && ev.data == "hb" {
				return
			}
		case <-deadline:
			t.Fatal("no heartbeat within 5s at a 20ms interval")
		}
	}
}

// TestSubscribeOutlivesRequestTimeout: the request budget bounds compute,
// not a stream's life. With a 1 ms budget, a GET /subscribe stream still
// receives the delta of an update POSTed 50 ms after it opened, while a
// /fragment on the same server runs out of budget and answers 503.
func TestSubscribeOutlivesRequestTimeout(t *testing.T) {
	srv, err := New(Config{
		Graph:          datagen.Tyrol(datagen.TyrolConfig{Individuals: 400, Seed: 9}),
		Schema:         schema.MustNew(datagen.BenchmarkShapes()...),
		Logger:         quietLogger(),
		Workers:        1,
		RequestTimeout: time.Millisecond,
		CacheTriples:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Live().Drain)

	st := openStream(t, ts, "/subscribe?shape=S51", "")
	if ev, ok := st.next(t); !ok || ev.event != "snapshot" {
		t.Fatalf("first event: %+v ok=%v", ev, ok)
	}
	time.Sleep(50 * time.Millisecond)
	if resp, body := post(t, ts, "/update", gateReview()); resp.StatusCode != http.StatusOK {
		t.Fatalf("update: %d\n%s", resp.StatusCode, body)
	}
	if ev, ok := st.next(t); !ok || ev.event != "delta" || ev.id != "2" {
		t.Fatalf("after the update: %+v ok=%v, want the epoch-2 delta", ev, ok)
	}
	if resp, _ := get(t, ts, "/fragment"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("GET /fragment on a 1 ms budget: %d, want 503", resp.StatusCode)
	}
}
