package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"nonmask/internal/protocols/registry"
	"nonmask/internal/saboteur"
	"nonmask/internal/verify"
)

// The result cache is content-addressed: a job's key is a SHA-256 over a
// canonical rendering of WHAT is being checked (the pretty-printed GCL
// source, or the protocol name plus normalized parameters) and the
// semantically relevant check options. Two options are deliberately
// excluded from the key:
//
//   - Workers: verdicts and witnesses are identical for every worker count
//     (internal/verify's metamorphic worker-invariance tests pin this), so
//     a result computed with 8 workers answers a 1-worker request.
//   - Deadline: it bounds wall-clock time, not the answer.
//
// MaxStates stays in the key because it changes which instances error out,
// and Strategy stays because it is recorded on the report the result is
// rendered from.

// optionsKey renders the semantically relevant options. The caller passes
// options verifyOptions resolved, so "0 = default" spellings share a cache
// line with the explicit default.
func optionsKey(o verify.Options) string {
	key := fmt.Sprintf("max=%d strategy=%s", o.MaxStates, o.Strategy)
	// The analyses selector joins the key only when it changes the result
	// payload: a metrics job must not be answered by a verdict-only cache
	// line (it would lack the metrics block). Verdict-only keys stay
	// byte-identical to pre-analyses versions, so existing persistent
	// stores keep answering verdict jobs across the upgrade.
	if o.Metrics {
		key += " analyses=metrics"
	}
	// The space-mode tier joins the key only when pinned away from auto:
	// an explicit tier changes the result payload (a quotient result's
	// "states" counts orbit representatives, and the pass list gains
	// canonicalize/spill spans), so it must not share a cache line with the
	// auto spelling. Auto itself contributes nothing, keeping pre-tier keys
	// byte-identical so persistent stores keep answering across the upgrade.
	if o.SpaceMode != verify.SpaceAuto {
		key += " space_mode=" + o.SpaceMode.String()
	}
	return key
}

// saboteurKey renders the normalized saboteur request. The caller must
// pass normalized options (engineOptions) so "0 = default" budget
// spellings share a cache line; verdict-only jobs (nil) contribute
// nothing, keeping their keys byte-identical to pre-saboteur versions.
func saboteurKey(sab *saboteur.Options) string {
	if sab == nil {
		return ""
	}
	return fmt.Sprintf(" saboteur=k:%d,objective:%s,budget:%d", sab.K, sab.Objective, sab.Budget)
}

func digest(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fingerprintSource keys a GCL job by its canonical (pretty-printed)
// source, so submissions differing only in whitespace or comments share a
// cache entry.
func fingerprintSource(canonical string, o verify.Options, sab *saboteur.Options) string {
	return digest("gcl", canonical, optionsKey(o)+saboteurKey(sab))
}

// fingerprintProtocol keys a catalog job by protocol name and normalized
// parameters.
func fingerprintProtocol(name string, p registry.Params, o verify.Options, sab *saboteur.Options) string {
	return digest("protocol", name, p.String(), optionsKey(o)+saboteurKey(sab))
}
