package client

import (
	"errors"
	"net/http"
	"slices"
	"sync"

	"repro/internal/ctrlplane"
)

// maxHeld caps the heartbeat answers one Client or Group holds. Past it,
// holding one more app's answer drops another's, whose next heartbeat
// then gets a full answer.
const maxHeld = 1024

// errEmptyHeartbeat is a heartbeat's failure when coopd answered 204 to
// a request that presented no held answer: there is nothing to return.
var errEmptyHeartbeat = errors.New("ctrlplane: heartbeat answered 204 without a held answer to stand for")

// heldAnswer is one app's last full heartbeat answer and the request
// header that presents the tag it came with, built once per tag.
// Immutable: the caller only ever gets copies of resp.
type heldAnswer struct {
	hdr   http.Header
	resp  ctrlplane.HeartbeatResponse
	alloc ctrlplane.AppAllocation // what resp.Allocation points at, if anything
}

// jsonContentType is the Content-Type of every held heartbeat, shared by
// their headers, which nothing writes.
var jsonContentType = []string{"application/json"}

// header is the request header presenting e (nil e: none, the plain one).
func (e *heldAnswer) header() http.Header {
	if e == nil {
		return nil
	}
	return e.hdr
}

// heldAnswers holds heartbeat answers by app ID.
type heldAnswers struct {
	mu sync.Mutex
	m  map[string]*heldAnswer
}

func (h *heldAnswers) get(id string) *heldAnswer {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.m[id]
}

func (h *heldAnswers) drop(id string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.m, id)
}

func (h *heldAnswers) put(id string, e *heldAnswer) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.m == nil {
		h.m = map[string]*heldAnswer{}
	}
	if _, ok := h.m[id]; !ok && len(h.m) >= maxHeld {
		for k := range h.m { // the first key of a map's iteration is arbitrary
			delete(h.m, k)
			break
		}
	}
	h.m[id] = e
}

// settle turns a heartbeat exchange of app id that presented e (nil:
// nothing) into the caller's answer, and what h holds for id with it.
// A 200 is returned as decoded into out and, when it carries a tag,
// held in a copy of its own; one without a tag drops what was held. A
// 204 to e returns a copy of e's answer. Anything else is a failure,
// which drops what was held.
func (h *heldAnswers) settle(id string, e *heldAnswer, resp http.Header, out *ctrlplane.HeartbeatResponse, err error) (*ctrlplane.HeartbeatResponse, error) {
	switch {
	case err == nil:
		tag := resp.Get("Etag")
		if tag == "" {
			h.drop(id)
			return out, nil
		}
		next := &heldAnswer{hdr: http.Header{"Content-Type": jsonContentType, ctrlplane.HeaderHeld: {tag}}}
		copyAnswer(&next.resp, &next.alloc, out)
		h.put(id, next)
		return out, nil
	case e != nil && errors.Is(err, ErrNotModified):
		copyAnswer(out, new(ctrlplane.AppAllocation), &e.resp)
		return out, nil
	}
	h.drop(id)
	if errors.Is(err, ErrNotModified) {
		err = errEmptyHeartbeat
	}
	return nil, err
}

// copyAnswer sets *dst to a copy of src that shares nothing with it,
// its allocation, if any, in *slot.
func copyAnswer(dst *ctrlplane.HeartbeatResponse, slot *ctrlplane.AppAllocation, src *ctrlplane.HeartbeatResponse) {
	*dst = *src
	if a := src.Allocation; a != nil {
		*slot = *a
		slot.PerNode = slices.Clone(a.PerNode)
		dst.Allocation = slot
	}
}
