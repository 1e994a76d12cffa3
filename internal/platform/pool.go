package platform

import "sync"

// Pool keeps built SimPlatforms for later runs: building one allocates its
// whole cache hierarchy, while a reused one gives every evaluation the
// bit-identical result a fresh one does. Platforms are keyed by their full
// evaluation identity, never by their CoreKind name, and the pool keeps per
// identity at most as many as were in use at once. The zero value is an
// empty pool; it is safe for concurrent use.
type Pool struct {
	mu    sync.Mutex
	idle  map[string][]*SimPlatform
	built uint64
}

// Built returns the number of platforms the pool has built.
func (p *Pool) Built() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.built
}

// Lease hands out spec's platforms for one run: newPlatform takes an idle
// one or builds one, and release returns every one it handed out. Call
// release once nothing reads them any more, on error and cancellation too.
func (p *Pool) Lease(spec CoreSpec) (newPlatform func() (Platform, error), release func()) {
	id := specIdentity(spec)
	p.mu.Lock()
	if p.idle == nil {
		p.idle = make(map[string][]*SimPlatform)
	}
	p.mu.Unlock()
	var out []*SimPlatform // guarded by p.mu
	newPlatform = func() (Platform, error) {
		p.mu.Lock()
		defer p.mu.Unlock()
		idle := p.idle[id]
		if len(idle) == 0 {
			s, err := NewSimPlatform(spec)
			if err != nil {
				return nil, err
			}
			p.built++
			idle = append(idle, s)
		}
		s := idle[len(idle)-1]
		p.idle[id] = idle[:len(idle)-1]
		out = append(out, s)
		return s, nil
	}
	release = func() {
		p.mu.Lock()
		defer p.mu.Unlock()
		p.idle[id], out = append(p.idle[id], out...), nil
	}
	return newPlatform, release
}
