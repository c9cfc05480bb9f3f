package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
)

// newHTTPClient returns a keep-alive client that never opens more than
// conns connections to the server.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// call issues one request and decodes a JSON response body into out (when
// out is non-nil and the status is 2xx). It returns the status code.
func call(ctx context.Context, c *http.Client, method, url string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("decoding %s %s: %w", method, url, err)
		}
	}
	return resp.StatusCode, nil
}

// watcher follows GET /api/v1/events for terminal events and hands each
// watched ID to its inbox. The event bus drops events by design, so a
// watcher is only a hint: callers fall back to GET polling for any ID
// whose event never comes.
type watcher struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu      sync.Mutex
	inboxes map[string]chan<- string // watched ID → owner's inbox
}

// streamEvent is the part of an SSE event payload the watcher reads.
type streamEvent struct {
	Task string `json:"task"`
}

// startWatcher opens the event stream filtered to the given span kinds on
// its own client (one connection) and returns once the server has
// subscribed it, so no event published after the return is missed for
// lack of a subscriber.
func startWatcher(c *http.Client, base string, kinds ...string) (*watcher, error) {
	ctx, cancel := context.WithCancel(context.Background())
	q := make([]string, len(kinds))
	for i, k := range kinds {
		q[i] = "kind=" + k
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/v1/events?"+strings.Join(q, "&"), nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("event stream: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	// The handler writes ": stream opened" after subscribing.
	if !sc.Scan() || !strings.HasPrefix(sc.Text(), ":") {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("event stream: no opening comment")
	}
	w := &watcher{cancel: cancel, done: make(chan struct{}), inboxes: map[string]chan<- string{}}
	go func() {
		defer close(w.done)
		defer resp.Body.Close()
		for sc.Scan() {
			data, ok := strings.CutPrefix(sc.Text(), "data: ")
			if !ok {
				continue
			}
			var ev streamEvent
			if json.Unmarshal([]byte(data), &ev) != nil || ev.Task == "" {
				continue
			}
			w.mu.Lock()
			inbox := w.inboxes[ev.Task]
			delete(w.inboxes, ev.Task)
			w.mu.Unlock()
			if inbox == nil {
				continue
			}
			select {
			case inbox <- ev.Task:
			case <-ctx.Done():
				return
			}
		}
	}()
	return w, nil
}

// watch registers id before its request is sent, so an event racing the
// response is not lost.
func (w *watcher) watch(id string, inbox chan<- string) {
	w.mu.Lock()
	w.inboxes[id] = inbox
	w.mu.Unlock()
}

// forget drops an ID whose outcome was found without its event.
func (w *watcher) forget(id string) {
	w.mu.Lock()
	delete(w.inboxes, id)
	w.mu.Unlock()
}

// close ends the stream and waits for the reader to exit.
func (w *watcher) close() {
	w.cancel()
	<-w.done
}
