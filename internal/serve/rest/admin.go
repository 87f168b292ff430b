// Admin endpoints over the durable verdict store:
//
//	POST /v1/admin/snapshot      archive the live store (optional name)
//	GET  /v1/admin/snapshots     list archives (counts, sizes, ages)
//	POST /v1/admin/restore       replace store contents from an archive
//
// On an engine without a store (-store-dir unset) all three answer 404
// store_disabled.
package rest

import (
	"errors"
	"net/http"
	"time"

	"mpidetect/internal/serve"
	"mpidetect/internal/store"
)

// SnapshotRequest is the POST /v1/admin/snapshot body. Name is optional;
// an empty body gets a UTC-timestamped name.
type SnapshotRequest struct {
	Name string `json:"name"`
}

// RestoreRequest is the POST /v1/admin/restore body.
type RestoreRequest struct {
	Name string `json:"name"`
}

// storeError maps durable-store sentinel errors onto the envelope,
// deferring to engineError for everything else.
func storeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, serve.ErrStoreDisabled):
		WriteError(w, http.StatusNotFound, "store_disabled", err.Error())
	case errors.Is(err, store.ErrBadName):
		WriteError(w, http.StatusBadRequest, "bad_snapshot_name", err.Error())
	case errors.Is(err, store.ErrUnknownSnapshot):
		WriteError(w, http.StatusNotFound, "unknown_snapshot", err.Error())
	default:
		engineError(w, err)
	}
}

func snapshotHandler(eng *serve.Engine) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req := SnapshotRequest{}
		// An empty body is allowed: snapshot under a generated name.
		if r.ContentLength != 0 && !decode(w, r, &req) {
			return
		}
		if req.Name == "" {
			req.Name = "snap-" + time.Now().UTC().Format("20060102T150405Z")
		}
		info, err := eng.SnapshotStore(req.Name)
		if err != nil {
			storeError(w, err)
			return
		}
		WriteJSON(w, http.StatusCreated, info)
	}
}

func snapshotsHandler(eng *serve.Engine) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		list, err := eng.StoreSnapshots()
		if err != nil {
			storeError(w, err)
			return
		}
		if list == nil {
			list = []store.SnapshotInfo{}
		}
		WriteJSON(w, http.StatusOK, map[string]any{"snapshots": list})
	}
}

func restoreHandler(eng *serve.Engine) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req RestoreRequest
		if !decode(w, r, &req) {
			return
		}
		info, err := eng.RestoreStore(req.Name)
		if err != nil {
			storeError(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, info)
	}
}
