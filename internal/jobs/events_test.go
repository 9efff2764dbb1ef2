package jobs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// gatedWriter is an SSE response writer whose blockAt-th Write (1-based)
// parks until release is closed, so a test can move the job along while
// the handler is mid-stream.
type gatedWriter struct {
	blockAt int
	blocked chan struct{} // closed when the gated write starts
	release chan struct{}

	mu     sync.Mutex
	writes int
	out    strings.Builder
}

func newGatedWriter(blockAt int) *gatedWriter {
	return &gatedWriter{blockAt: blockAt, blocked: make(chan struct{}), release: make(chan struct{})}
}

func (w *gatedWriter) Header() http.Header { return http.Header{} }
func (w *gatedWriter) WriteHeader(int)     {}
func (w *gatedWriter) Flush()              {}

func (w *gatedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.writes++
	n := w.writes
	w.mu.Unlock()
	if n == w.blockAt {
		close(w.blocked)
		<-w.release
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.out.Write(p)
}

// lastEvent returns the name and data of the stream's final SSE event.
func (w *gatedWriter) lastEvent(t *testing.T) (string, string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	evs := strings.Split(strings.TrimSpace(w.out.String()), "\n\n")
	name, data, ok := strings.Cut(evs[len(evs)-1], "\n")
	if !ok {
		t.Fatalf("malformed stream %q", w.out.String())
	}
	return strings.TrimPrefix(name, "event: "), strings.TrimPrefix(data, "data: ")
}

// TestEventsEndWithTerminalStatus: a job's event stream ends on its
// terminal status even when the terminal event is never delivered to
// the subscriber — because the job finished between the stream's
// leading status and its subscription, or because publish dropped the
// event for a subscriber whose buffer was full.
func TestEventsEndWithTerminalStatus(t *testing.T) {
	cases := []struct {
		name    string
		blockAt int // the write the handler is parked in while the job moves
		advance func(j *job)
	}{
		{"finished-before-subscribe", 1, func(j *job) {}},
		{"terminal-dropped", 2, func(j *job) {
			// The handler is parked writing the first progress event;
			// fill its subscription buffer so the terminal event drops.
			for i := 0; i < cap(j.subs[0]); i++ {
				j.publish(sseEvent{name: "progress", data: []byte("{}")}, false)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			j := &job{id: "j1", tenant: "a", state: StateRunning, stop: make(chan struct{})}
			s := &Server{jobs: map[string]*job{j.id: j}}
			req := httptest.NewRequest(http.MethodGet, "/jobs/j1/events", nil)
			req.SetPathValue("id", j.id)
			w := newGatedWriter(tc.blockAt)
			done := make(chan struct{})
			go func() {
				defer close(done)
				s.handleEvents(w, req)
			}()
			if tc.blockAt > 1 {
				// Wait for the subscription, then hand the handler one
				// event to park on.
				for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
					j.mu.Lock()
					n := len(j.subs)
					j.mu.Unlock()
					if n == 1 {
						break
					}
					if time.Now().After(deadline) {
						t.Fatal("handler never subscribed")
					}
				}
				j.publish(sseEvent{name: "progress", data: []byte("{}")}, false)
			}
			<-w.blocked
			tc.advance(j)
			j.mu.Lock()
			j.state = StateDone
			j.mu.Unlock()
			s.publishState(j)
			close(w.release)
			<-done

			name, data := w.lastEvent(t)
			var st Status
			if err := json.Unmarshal([]byte(data), &st); name != "status" || err != nil || st.State != StateDone {
				t.Fatalf("stream ends with %s %s, want the terminal done status", name, data)
			}
		})
	}
}
