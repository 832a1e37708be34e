package core

import "bytes"

// push is one status namespace's completion push. On a wall-clock-driven
// clock over storage that reaches the in-process store (cos.WatcherOf; as
// under gowren-server), a wait also holds a watch on its status prefix:
// each committed status key goes into the done-set as a LIST's keys do, and
// wakes the namespace's waits. Once a LIST that began under the watch has
// landed, the done-set is exact — the LIST holds every status committed
// before the watch, the watch every one after — so sweeps stop listing it
// until the last wait lets the watch go. The watch also delivers each
// status body, kept until a fetch takes it (takePushed), so a pushed status
// costs no GET. A sweepState points to a push only while a wait holds the
// watch or a body waits (tidyPush): never on the Virtual clock, whose
// client polls and reads COS exactly as the paper's does.
type push struct {
	holds  int    // the waits holding the watch
	cancel func() // ends the watch; nil until it is armed
	// arm numbers the watch's arming in its coordinator (see cover.arm),
	// and exact is set once a LIST that began under that arming has landed.
	arm   uint64
	exact bool
	// bodies holds, by call ID, the body of each commit the watch newly
	// recorded: the store's own copy, which nothing here writes into (a
	// fetch hands out a copy). A body outlives the watch's release, so a
	// fetch after its wait still finds it, until forget drops it.
	bodies map[string][]byte
}

// tidyPush drops s's push once no wait holds its watch and no body waits.
// Callers hold the hub's lock.
func (s *sweepState) tidyPush() {
	if p := s.push; p != nil && p.holds == 0 && len(p.bodies) == 0 {
		s.push = nil
	}
}

// watch arms ns's commit watch for the length of one wait, when the
// coordinator has a watcher, and returns the wait's release: a no-op when
// nothing can be watched. Every newly recorded commit signals the waits
// armed on ns. Waits share one watch per namespace; the last release
// cancels it, and the next arming must list once more before sweeps stop
// listing.
func (c *sweepCoordinator) watch(ns nsKey) (release func()) {
	if c.watcher == nil {
		return func() {}
	}
	c.mu.Lock()
	s := c.stateLocked(ns)
	if s.push == nil {
		s.push = &push{bodies: make(map[string][]byte)}
	}
	s.push.holds++
	first := s.push.holds == 1
	c.mu.Unlock()
	if first {
		// Watch runs outside c.mu: deliveries take c.mu under the store's
		// lock, so the store's lock is always taken first.
		cancel := c.watcher.Watch(ns.bucket, s.prefix, func(key string, body []byte) {
			c.mu.Lock()
			defer c.mu.Unlock()
			if id, ok := callIDFromStatusKey(key); ok && s.done.record(id) {
				if s.push == nil { // the watch is being let go; the body is kept
					s.push = &push{bodies: make(map[string][]byte)}
				}
				s.push.bodies[id] = body
				s.wake(nil)
			}
		})
		c.mu.Lock()
		c.armings++
		s.push.cancel, s.push.arm = cancel, c.armings
		c.mu.Unlock()
	}
	return func() {
		c.mu.Lock()
		p := s.push
		p.holds--
		var cancel func()
		if p.holds == 0 {
			cancel, p.cancel, p.exact = p.cancel, nil, false
			s.tidyPush()
		}
		c.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	}
}

// takePushed moves the status bodies the watches pushed for calls, all in
// bucket, into bodies (index-aligned with calls), each a private copy, and
// returns the indices of the calls it found none for — the ones to GET. A
// body is taken at most once. Without a watcher it returns nil: GET every
// call, with no lookup.
func (c *sweepCoordinator) takePushed(bucket string, calls []callRef, bodies [][]byte) (gets []int) {
	if c.watcher == nil {
		return nil
	}
	gets = make([]int, 0, len(calls))
	c.mu.Lock()
	for i, call := range calls {
		if s := c.states[nsKey{bucket: bucket, execID: call.execID}]; s != nil && s.push != nil {
			bodies[i] = s.push.bodies[call.callID]
			delete(s.push.bodies, call.callID)
			s.tidyPush()
		}
		if bodies[i] == nil {
			gets = append(gets, i)
		}
	}
	c.mu.Unlock()
	// The copies are made outside the lock: deliveries wait on it under the
	// store's, and a stored body never changes.
	for i, body := range bodies {
		if body != nil {
			bodies[i] = bytes.Clone(body)
		}
	}
	return gets
}
