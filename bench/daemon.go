package main

// parclustd as a subprocess on loopback, the HTTP calls the serve workloads
// make against it, and the /proc readings taken of it and of this process.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"parclust"
)

// daemon is one running parclustd.
type daemon struct {
	cmd    *exec.Cmd
	exited chan error // receives the result of cmd.Wait
	base   string
	client *http.Client
}

// startDaemon starts bin on a free loopback port and waits until /healthz
// answers. conns bounds the keep-alive connections the client opens.
func startDaemon(bin string, conns int) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:"+strconv.Itoa(port), "-drain", "2s")
	cmd.Stderr = os.Stderr
	// Should the benchmark die without stopping it, the daemon dies too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start parclustd: %w", err)
	}
	d := &daemon{
		cmd:    cmd,
		exited: make(chan error, 1),
		base:   fmt.Sprintf("http://127.0.0.1:%d", port),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		}},
	}
	go func() { d.exited <- cmd.Wait() }()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if _, err := d.fetch("GET", "/healthz", nil, false); err == nil {
			return d, nil
		}
		select {
		case err := <-d.exited:
			return nil, fmt.Errorf("parclustd exited during start: %v", err)
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("parclustd did not become healthy within 15s")
		}
	}
}

// stop shuts the daemon down gracefully and waits for it to exit, killing
// it if the drain overruns.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("find a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// request is one timed query of a workload.
type request struct {
	class string // cut_labels, cut_ndjson, cut_nolabels, knn, range or emst
	path  string
}

func (r request) ndjson() bool { return r.class == "cut_ndjson" }

// send GETs r and drains the response, returning the body size. A non-2xx
// status, and an NDJSON stream without its trailer record, are errors.
func (d *daemon) send(r request) (int64, error) {
	resp, err := d.do("GET", r.path, nil, r.ndjson())
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	tw := &tailWriter{}
	n, err := io.Copy(tw, resp.Body)
	if err != nil {
		return n, fmt.Errorf("GET %s: read body: %w", r.path, err)
	}
	if resp.StatusCode/100 != 2 {
		return n, fmt.Errorf("GET %s: status %d: %s", r.path, resp.StatusCode, bytes.TrimSpace(tw.tail))
	}
	if r.ndjson() && !bytes.Contains(tw.tail, []byte(`"done":true`)) {
		return n, fmt.Errorf("GET %s: NDJSON stream ended without its trailer", r.path)
	}
	return n, nil
}

// fetch issues one request and returns the whole body; non-2xx is an error.
func (d *daemon) fetch(method, path string, body []byte, ndjson bool) ([]byte, error) {
	resp, err := d.do(method, path, body, ndjson)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

func (d *daemon) do(method, path string, body []byte, ndjson bool) (*http.Response, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("build %s %s: %w", method, path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if ndjson {
		req.Header.Set("Accept", "application/x-ndjson")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return resp, nil
}

// fetchJSON fetches path and decodes the JSON body into v.
func (d *daemon) fetchJSON(path string, v any) error {
	data, err := d.fetch("GET", path, nil, false)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("decode %s: %w", path, err)
	}
	return nil
}

// tailWriter discards what it is given but keeps the last bytes, where an
// NDJSON trailer or an error message sits.
type tailWriter struct{ tail []byte }

func (w *tailWriter) Write(p []byte) (int, error) {
	const keep = 256
	w.tail = append(w.tail, p...)
	if len(w.tail) > keep {
		w.tail = append(w.tail[:0], w.tail[len(w.tail)-keep:]...)
	}
	return len(p), nil
}

// pointsBody encodes rows as the JSON body of an upload or insert.
func pointsBody(pts parclust.Points, dtype string) []byte {
	var b bytes.Buffer
	b.WriteString(`{`)
	if dtype != "" {
		fmt.Fprintf(&b, `"dtype":%q,`, dtype)
	}
	b.WriteString(`"points":[`)
	for i := 0; i < pts.N; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('[')
		for j, x := range pts.Data[i*pts.Dim : (i+1)*pts.Dim] {
			if j > 0 {
				b.WriteByte(',')
			}
			b.Write(strconv.AppendFloat(nil, x, 'g', -1, 64))
		}
		b.WriteByte(']')
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

// upload stores pts as dataset name.
func (d *daemon) upload(name string, pts parclust.Points, f32 bool) error {
	dtype := ""
	if f32 {
		dtype = "float32"
	}
	_, err := d.fetch("PUT", "/v1/datasets/"+name, pointsBody(pts, dtype), false)
	return err
}

// engineCounters is the part of a dataset's /v1/stats counters the
// benchmark reads.
type engineCounters struct {
	TreeBuilds  int64 `json:"tree_builds"`
	MSTBuilds   int64 `json:"mst_builds"`
	CutBuilds   int64 `json:"cut_builds"`
	CutHits     int64 `json:"cut_hits"`
	TreePatches int64 `json:"tree_patches"`
	Compactions int64 `json:"compactions"`
}

// serverStats is the part of /v1/stats the benchmark reads.
type serverStats struct {
	Registry struct {
		Bytes int64 `json:"bytes"`
	} `json:"registry"`
	Datasets map[string]struct {
		Counters engineCounters `json:"counters"`
	} `json:"datasets"`
}

func (d *daemon) stats() (serverStats, error) {
	var s serverStats
	err := d.fetchJSON("/v1/stats", &s)
	return s, err
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// peakRSS returns a process's peak resident set size (VmHWM in
// /proc/<pid>/status) in MiB.
func peakRSS(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, fmt.Errorf("read process status: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// procCPU returns the user+system CPU time a process has used, from
// /proc/<pid>/stat (clock ticks of 10ms).
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, fmt.Errorf("read process stat: %w", err)
	}
	// The command name (field 2) may hold spaces; fields after it follow
	// the closing parenthesis. utime and stime are fields 14 and 15.
	fields := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(fields) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	var ticks int64
	for _, f := range fields[11:13] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse cpu ticks: %w", err)
		}
		ticks += v
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// stealTime returns the CPU time the hypervisor has given to other guests,
// summed over this VM's CPUs: the eighth counter of the cpu line of
// /proc/stat, in clock ticks of 10ms.
func stealTime() (time.Duration, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, fmt.Errorf("read /proc/stat: %w", err)
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	ticks, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("parse steal ticks: %w", err)
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// stealMark is the VM's steal time at one moment.
type stealMark time.Duration

// markSteal reads the VM's steal time. A run fails in window when
// /proc/stat cannot be read, so here an error reads as no steal.
func markSteal() stealMark {
	s, _ := stealTime()
	return stealMark(s)
}

// since returns the steal since m per CPU: how long, on average, an
// operation running from m until now waited while the hypervisor ran other
// guests on this VM's CPUs. The counter moves in 10 ms ticks, so the
// figure suits operations of many milliseconds; a shorter one mostly sees
// none, and now and then a whole tick.
func (m stealMark) since() time.Duration {
	return (time.Duration(markSteal()) - time.Duration(m)) / time.Duration(runtime.NumCPU())
}

// lessSteal returns the wall time d of an operation that started at mark m
// and has just ended, less the steal it waited through (see since), and
// never below zero. A CPU-bound operation of many milliseconds lengthens
// with the steal of its time: over twenty runs of batch-geolife3d whose
// windows lost 0.2-41% of the CPU time to steal, the median cold HDBSCAN*
// took 376-750 ms, and 374-466 ms scaled by one minus the window's steal
// share.
func lessSteal(d time.Duration, m stealMark) time.Duration { return max(0, d-m.since()) }

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
