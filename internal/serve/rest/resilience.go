// Resilience endpoints: readiness and the admin-only fault-injection
// surface.
//
//	GET    /v1/readyz               ok/degraded/draining + per-subsystem detail
//	GET    /v1/admin/faults         list registered fault points
//	POST   /v1/admin/faults         arm a fault at a registered point
//	DELETE /v1/admin/faults/{point} disarm one point
//	DELETE /v1/admin/faults         disarm everything
//
// readyz maps ok and degraded to 200 — a degraded engine still answers
// every request, some with reduced capability — and draining to 503, the
// signal load balancers eject on. The faults surface is admin-only by
// construction (it ships armed chaos into production code paths); like
// the snapshot admin routes it has no unversioned alias, and operators
// are expected to gate /v1/admin/* at the proxy.
package rest

import (
	"net/http"
	"time"

	"mpidetect/internal/fault"
	"mpidetect/internal/resilience"
	"mpidetect/internal/serve"
)

func readyzHandler(eng *serve.Engine) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rep := eng.Ready()
		status := http.StatusOK
		if rep.Status == resilience.StatusDraining {
			status = http.StatusServiceUnavailable
		}
		WriteJSON(w, status, rep)
	}
}

// ArmFaultRequest is the POST /v1/admin/faults body. Point must name a
// registered fault point; Mode is "error", "panic" or "latency";
// DelayMS is the latency-mode sleep; Count auto-disarms after that many
// hits (0 = until disarmed).
type ArmFaultRequest struct {
	Point   string `json:"point"`
	Mode    string `json:"mode"`
	Message string `json:"message,omitempty"`
	DelayMS int    `json:"delay_ms,omitempty"`
	Count   int    `json:"count,omitempty"`
}

// registeredFault reports whether name is a declared fault point.
// Arming is restricted to declared points so a typo surfaces as 404
// instead of arming a point nothing ever hits.
func registeredFault(name string) bool {
	for _, info := range fault.List() {
		if info.Point == name {
			return true
		}
	}
	return false
}

func listFaultsHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]any{"faults": fault.List()})
	}
}

func armFaultHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req ArmFaultRequest
		if !decode(w, r, &req) {
			return
		}
		if !registeredFault(req.Point) {
			WriteError(w, http.StatusNotFound, "unknown_fault_point",
				"no fault point "+req.Point)
			return
		}
		spec := fault.Spec{
			Mode:    fault.Mode(req.Mode),
			Message: req.Message,
			Delay:   time.Duration(req.DelayMS) * time.Millisecond,
			Count:   req.Count,
		}
		if err := fault.Arm(req.Point, spec); err != nil {
			WriteError(w, http.StatusBadRequest, "invalid_fault", err.Error())
			return
		}
		WriteJSON(w, http.StatusOK, map[string]any{"point": req.Point, "armed": true})
	}
}

func disarmFaultHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		point := r.PathValue("point")
		if !registeredFault(point) {
			WriteError(w, http.StatusNotFound, "unknown_fault_point",
				"no fault point "+point)
			return
		}
		WriteJSON(w, http.StatusOK, map[string]any{
			"point": point, "disarmed": fault.Disarm(point)})
	}
}

func disarmAllFaultsHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]any{"disarmed": fault.DisarmAll()})
	}
}
