package main

import (
	"bufio"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/server"
)

// corpus is what the server under test holds in every workload, so that
// workloads differ only in the traffic they send.
var corpus = []string{"TL", "TC", "OLE", "OPE", "OBE"}

// dataSeed generates the resident datasets and the pools of probe and
// insert geometries. It is not a setting: a run's total work must not
// depend on which traffic seed the driver picked, nor on anything else.
const dataSeed = 2026

// options are the benchmark's settings. Workload, Seed, Seconds, Trace,
// Scale, Ops and Scratch are flags; Order, Setups and Out are fields only
// so that the test can run small.
type options struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"` // traffic seed
	Seconds  int     `json:"seconds"`
	Trace    int     `json:"trace"`
	Scale    float64 `json:"scale"`
	Ops      int     `json:"ops"`
	Order    uint    `json:"order"`  // grid order of the approximations
	Setups   int     `json:"setups"` // cold set-ups per run; setup_s is their median
	Scratch  string  `json:"scratch"`
	Out      string  `json:"out"` // reports and traces
}

func defaultOptions() options {
	out := filepath.Join(benchDir(), "out")
	return options{
		Workload: "all", Seed: 1, Seconds: 10, Scale: 0.5,
		Order: datagen.DefaultOrder, Setups: 3,
		Scratch: filepath.Join(out, "scratch"), Out: out,
	}
}

// measuredRounds is two rounds of about half a second for every second
// of run length but the first, which goes to the warm-up round and the
// off-the-clock validation.
func (o options) measuredRounds() int { return max(1, 2*(o.Seconds-1)) }

// header makes a disturbed run diagnosable from its own artifact.
type header struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	ScratchDir string `json:"scratch_dir"`
	ScratchFS  string `json:"scratch_fs"`
}

type env struct {
	opt     options
	suite   *datagen.Suite
	hdr     header
	scratch string // private directory under opt.Scratch, removed by close
	builds  int
}

func newEnv(opt options) (*env, error) {
	if err := os.MkdirAll(opt.Scratch, 0o755); err != nil {
		return nil, fmt.Errorf("scratch dir: %w", err)
	}
	dir, err := os.MkdirTemp(opt.Scratch, "run-")
	if err != nil {
		return nil, fmt.Errorf("scratch dir: %w", err)
	}
	e := &env{opt: opt, scratch: dir, suite: datagen.NewSuite(dataSeed, opt.Scale)}
	e.hdr = header{
		Commit:     commit(),
		Go:         runtime.Version(),
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		ScratchDir: dir,
		ScratchFS:  fsType(dir),
	}
	return e, nil
}

func (e *env) close() { os.RemoveAll(e.scratch) }

// sut is one instance of the system under test: the registry with WAL and
// snapshots on, the server over it, a real loopback listener, and the one
// keep-alive connection the load generator uses.
type sut struct {
	dir string
	reg *server.Registry
	met *obs.Registry
	srv *server.Server
	ts  *httptest.Server
	hc  *http.Client
}

// build is one cold set-up, ending with the first 200 from /v1/healthz.
// Every build gets an empty directory, so none is a snapshot warm start.
func (e *env) build() (*sut, error) {
	e.builds++
	s := &sut{dir: filepath.Join(e.scratch, fmt.Sprintf("sut-%d", e.builds)), met: obs.NewRegistry()}
	s.reg = server.NewRegistry(e.suite.Space, e.opt.Order)
	s.reg.Instrument(s.met)
	if err := s.reg.EnableSnapshots(filepath.Join(s.dir, "snap")); err != nil {
		return nil, err
	}
	if err := s.reg.EnableWAL(server.WALOptions{Dir: filepath.Join(s.dir, "wal")}); err != nil {
		return nil, err
	}
	for _, name := range corpus {
		if _, err := s.reg.Add(name, datagen.EntityTypes[name], e.suite.Sets[name]); err != nil {
			return nil, err
		}
	}
	// One sweep worker: with GOMAXPROCS workers plus the client the box
	// has no idle core left and a busy neighbour moves throughput by a
	// third (see README).
	s.srv = server.New(s.reg, server.Config{JoinWorkers: 1, Metrics: s.met})
	s.ts = httptest.NewServer(s.srv.Handler())
	s.hc = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
	resp, err := s.hc.Get(s.ts.URL + "/v1/healthz")
	if err != nil {
		s.close()
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.close()
		return nil, fmt.Errorf("healthz: %s", resp.Status)
	}
	return s, nil
}

func (s *sut) close() {
	s.hc.CloseIdleConnections()
	s.ts.Close()
	s.srv.Close()
	s.reg.WaitCompactions()
	s.reg.CloseWAL()
	os.RemoveAll(s.dir)
}

// setup runs n cold builds with a collection before each, keeps the last
// one as the system under test and returns every build's wall time.
func (e *env) setup(n int) (*sut, []float64, error) {
	var s *sut
	var times []float64
	for i := 0; i < n; i++ {
		if s != nil {
			s.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if s, err = e.build(); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return s, times, nil
}

func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				rev = kv.Value
			case "vcs.modified":
				if kv.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
	}
	return rev + dirty
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
