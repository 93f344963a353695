package service

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"

	"nonmask/internal/obs"
)

// BuildInfo identifies the running server build, so event streams and
// metric scrapes can be correlated across deploys. Served by
// GET /v1/version and exposed as the csserved_build_info info-gauge.
type BuildInfo struct {
	// Module is the main module path.
	Module string `json:"module"`
	// Version is the main module version ("(devel)" for tree builds).
	Version string `json:"version"`
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version"`
	// Revision and Modified carry the VCS stamp when the build had one.
	Revision string `json:"revision,omitempty"`
	Modified bool   `json:"modified,omitempty"`
}

var (
	buildOnce sync.Once
	buildInfo BuildInfo
)

// ReadBuild returns the binary's build identity via
// runtime/debug.ReadBuildInfo, computed once.
func ReadBuild() BuildInfo {
	buildOnce.Do(func() {
		buildInfo = BuildInfo{Module: "unknown", Version: "unknown", GoVersion: runtime.Version()}
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		if bi.Main.Path != "" {
			buildInfo.Module = bi.Main.Path
		}
		if bi.Main.Version != "" {
			buildInfo.Version = bi.Main.Version
		}
		if bi.GoVersion != "" {
			buildInfo.GoVersion = bi.GoVersion
		}
		for _, st := range bi.Settings {
			switch st.Key {
			case "vcs.revision":
				buildInfo.Revision = st.Value
			case "vcs.modified":
				buildInfo.Modified = st.Value == "true"
			}
		}
	})
	return buildInfo
}

func (s *Server) handleVersion(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, ReadBuild())
}

// writeBuildInfo renders the build identity as a Prometheus info-style
// gauge (constant 1, identity in the labels).
func writeBuildInfo(w io.Writer) {
	b := ReadBuild()
	obs.WriteHeader(w, "csserved_build_info", "gauge", "Build identity of the running server (constant 1; identity in labels).")
	fmt.Fprintf(w, "csserved_build_info{module=%q,version=%q,go=%q} 1\n", b.Module, b.Version, b.GoVersion)
}
