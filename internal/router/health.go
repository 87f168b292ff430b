// Active health checking: the loop that decides ring membership.
//
// Every CheckInterval the router probes each backend's GET /v1/readyz.
// A 200 — ok or degraded; a degraded backend still answers every
// request — counts as healthy. A dead socket, a 5xx, or a draining 503
// counts as a failure. Outcomes feed the backend's breaker: enough
// consecutive failures trip it (ejecting the backend from the ring on
// the next rebuild), and once the cooldown elapses the breaker's
// half-open gate admits exactly one probe per round — the re-admission
// handshake. Proxy failures feed the same breakers, so a backend that
// dies mid-interval is ejected by live traffic without waiting for the
// next probe round.
package router

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"mpidetect/internal/fault"
)

// healthLoop drives probe rounds until Close.
func (rt *Router) healthLoop() {
	defer rt.wg.Done()
	// Clock-free ticker: a timer per round so a probe round that
	// overruns the interval (slow sockets time out at CheckTimeout)
	// delays the next round instead of piling rounds up.
	for {
		rt.probeRound()
		t := time.NewTimer(rt.cfg.CheckInterval)
		select {
		case <-t.C:
		case <-rt.stop:
			t.Stop()
			return
		}
	}
}

// probeRound probes every backend whose breaker admits a call, then
// rebuilds the ring from the resulting breaker states.
func (rt *Router) probeRound() {
	for _, b := range rt.backends {
		// Allow is the half-open gate: a cooling-down backend is skipped,
		// a cooled-down one gets exactly one probe, and a healthy one is
		// always probed. Skip (not Record) on shutdown so an aborted
		// probe never counts against the backend.
		if !b.breaker.Allow() {
			continue
		}
		select {
		case <-rt.stop:
			b.breaker.Skip()
			return
		default:
		}
		b.breaker.Record(rt.probe(b))
	}
	rt.rebuildRing()
}

// probe runs one readyz check; true means routable.
func (rt *Router) probe(b *backend) bool {
	atomic.AddInt64(&b.stats.Probes, 1)
	ok, err := rt.probeOnce(b)
	if !ok {
		atomic.AddInt64(&b.stats.ProbeFailures, 1)
		if err != nil {
			b.noteErr(err)
		}
	}
	return ok
}

func (rt *Router) probeOnce(b *backend) (bool, error) {
	if err := fault.Inject(FaultHealth); err != nil {
		return false, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.CheckTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.name+"/v1/readyz", nil)
	if err != nil {
		return false, err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return false, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Draining (503) and 5xx alike: stop routing new keys here.
		return false, fmt.Errorf("readyz: HTTP %d from %s", resp.StatusCode, b.name)
	}
	return true, nil
}
