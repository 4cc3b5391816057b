package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"

	"wasmcontainers/internal/k8s"
	"wasmcontainers/internal/serve"
)

// The container endpoints are a minimal Docker-Engine-API-shaped control
// surface over the simulated cluster, the way sockerless serves the Docker
// REST API without Docker: create builds a pod (phase Pending — created,
// not started, unseen by the scheduler), start admits it to the API server
// and waits while the bridge loop steps it through the full scheduler →
// kubelet → CRI → runtime path at paced virtual time, json lists, stats
// reads the pod's cgroup through the metrics-server. Containers and warm
// pools share one DES clock and one set of simulated nodes, so every
// section touching them runs on the bridge loop.

// ContainerCreateRequest is the accepted subset of Docker's create body.
type ContainerCreateRequest struct {
	// Image names the container image; empty means the Wasm benchmark image.
	Image string `json:"Image"`
	// Runtime selects the RuntimeClass (crun-wamr, wasmtime, crun, ...);
	// empty means crun-wamr, the paper's architecture.
	Runtime string `json:"Runtime"`
	// Cmd is passed to the workload as args.
	Cmd []string `json:"Cmd"`
	// Env is passed through to the container spec.
	Env []string `json:"Env"`
}

// ContainerCreateResponse mirrors Docker's create response.
type ContainerCreateResponse struct {
	ID       string   `json:"Id"`
	Warnings []string `json:"Warnings"`
}

// ContainerSummary is one row of GET /v1/containers/json.
type ContainerSummary struct {
	ID      string            `json:"Id"`
	Names   []string          `json:"Names"`
	Image   string            `json:"Image"`
	State   string            `json:"State"`
	Status  string            `json:"Status"`
	Created float64           `json:"Created"` // simulated seconds
	Labels  map[string]string `json:"Labels"`
}

// ContainerStats is the one-shot (stream=false) stats body.
type ContainerStats struct {
	ID          string `json:"id"`
	Name        string `json:"name"`
	MemoryStats struct {
		Usage int64 `json:"usage"`
	} `json:"memory_stats"`
	Node string `json:"node"`
}

// DefaultContainerImage backs creates that name no image: the minimal Wasm
// service from the pre-populated benchmark image store.
const DefaultContainerImage = "minimal-service:wasm"

// dockerState maps a pod phase to Docker's state vocabulary.
func dockerState(phase k8s.PodPhase) string {
	switch phase {
	case k8s.PodRunning:
		return "running"
	case k8s.PodFailed:
		return "exited"
	default:
		return "created"
	}
}

// handleContainerCreate registers a pod (phase Pending) and returns its id.
// Like docker create, nothing executes until start.
func (s *Server) handleContainerCreate(w http.ResponseWriter, r *http.Request) {
	var req ContainerCreateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, ErrorMapping{http.StatusBadRequest, "bad_request", 0},
			fmt.Errorf("gateway: decode create body: %w", err))
		return
	}
	if req.Image == "" {
		req.Image = DefaultContainerImage
	}
	if req.Runtime == "" {
		req.Runtime = "crun-wamr"
	}
	name := r.URL.Query().Get("name")
	if name == "" {
		name = "ctr"
	}
	if _, ok := s.serving.K.API.RuntimeClass(req.Runtime); !ok {
		writeError(w, ErrorMapping{http.StatusBadRequest, "create_failed", 0},
			fmt.Errorf("gateway: unknown runtime class %q", req.Runtime))
		return
	}
	var pod *k8s.Pod
	if err := s.bridge.Do(r.Context(), func() {
		pod = s.serving.K.NewPod(k8s.DeployOptions{
			NamePrefix:       name,
			RuntimeClassName: req.Runtime,
			Image:            req.Image,
			Args:             req.Cmd,
			Env:              req.Env,
		})
		s.containers[pod.UID] = pod
	}); err != nil {
		writeError(w, MapError(err, retryHints{}), err)
		return
	}
	writeJSON(w, http.StatusCreated, ContainerCreateResponse{ID: pod.UID, Warnings: nil})
}

// errNoSuchContainer answers a start for an id create never issued.
var errNoSuchContainer = errors.New("gateway: no such container")

// handleContainerStart admits the pod and waits until it has started: 204
// once Running, 500 with the kubelet's message once Failed. The start
// rides the bridge's request path, so it enters the DES at the paced
// virtual instant and a drain waits for it; the pod's scheduling and CRI
// events then step at their own paced times while invokes keep flowing.
// podChanged answers it.
func (s *Server) handleContainerStart(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	res, err := s.bridge.submit(r.Context(), func(done func(serve.RequestResult)) {
		pod, ok := s.containers[id]
		switch {
		case !ok:
			done(serve.RequestResult{Err: errNoSuchContainer})
		case pod.Status.Phase == k8s.PodRunning || pod.Status.Phase == k8s.PodFailed:
			done(startResult(pod))
		default:
			api := s.serving.K.API
			if _, admitted := api.Pod(pod.Namespace, pod.Name); !admitted {
				if err := api.CreatePod(pod); err != nil {
					done(serve.RequestResult{Err: err})
					return
				}
			}
			s.starts[id] = append(s.starts[id], done)
		}
	})
	switch {
	case err != nil:
		writeError(w, MapError(err, retryHints{}), err)
	case errors.Is(res.Err, errNoSuchContainer):
		writeError(w, ErrorMapping{http.StatusNotFound, "no_such_container", 0},
			fmt.Errorf("gateway: no such container %q", id))
	case res.Err != nil:
		writeError(w, ErrorMapping{http.StatusInternalServerError, "start_failed", 0}, res.Err)
	default:
		w.WriteHeader(http.StatusNoContent)
	}
}

// podChanged is the API server's pod watch, registered at New: it answers
// the start calls waiting on a container once its pod is Running or
// Failed. Watch handlers run inside DES events, on the bridge loop.
func (s *Server) podChanged(p *k8s.Pod) {
	waiting := s.starts[p.UID]
	if len(waiting) == 0 || (p.Status.Phase != k8s.PodRunning && p.Status.Phase != k8s.PodFailed) {
		return
	}
	delete(s.starts, p.UID)
	res := startResult(p)
	for _, done := range waiting {
		done(res)
	}
}

// startResult reports a started pod's outcome as a bridge result.
func startResult(p *k8s.Pod) serve.RequestResult {
	if p.Status.Phase == k8s.PodRunning {
		return serve.RequestResult{}
	}
	return serve.RequestResult{Err: fmt.Errorf("gateway: container %s is %s: %s", p.UID, p.Status.Phase, p.Status.Message)}
}

// handleContainerList lists containers; like docker ps it shows running
// ones unless ?all=1.
func (s *Server) handleContainerList(w http.ResponseWriter, r *http.Request) {
	all := r.URL.Query().Get("all") != "" && r.URL.Query().Get("all") != "0" &&
		r.URL.Query().Get("all") != "false"
	var out []ContainerSummary
	if err := s.bridge.Do(r.Context(), func() {
		out = make([]ContainerSummary, 0, len(s.containers))
		for _, pod := range s.containers {
			if !all && pod.Status.Phase != k8s.PodRunning {
				continue
			}
			out = append(out, ContainerSummary{
				ID:      pod.UID,
				Names:   []string{"/" + pod.Name},
				Image:   pod.Spec.Containers[0].Image,
				State:   dockerState(pod.Status.Phase),
				Status:  string(pod.Status.Phase),
				Created: float64(pod.Status.CreatedAt) / 1e9,
				Labels: map[string]string{
					"runtime-class": pod.Spec.RuntimeClassName,
					"node":          pod.Spec.NodeName,
				},
			})
		}
	}); err != nil {
		writeError(w, MapError(err, retryHints{}), err)
		return
	}
	// Map iteration is randomized; present a stable listing (uids are
	// zero-padded sequence numbers).
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	writeJSON(w, http.StatusOK, out)
}

// handleContainerStats reads the pod's cgroup memory through the
// metrics-server vantage (one-shot, stream=false semantics).
func (s *Server) handleContainerStats(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var (
		ok    bool
		stats ContainerStats
	)
	if err := s.bridge.Do(r.Context(), func() {
		var pod *k8s.Pod
		pod, ok = s.containers[id]
		if !ok {
			return
		}
		stats.ID = pod.UID
		stats.Name = "/" + pod.Name
		stats.Node = pod.Spec.NodeName
		if pm, found := s.serving.K.Metrics.PodMetrics(pod); found {
			stats.MemoryStats.Usage = pm.MemoryBytes
		}
	}); err != nil {
		writeError(w, MapError(err, retryHints{}), err)
		return
	}
	if !ok {
		writeError(w, ErrorMapping{http.StatusNotFound, "no_such_container", 0},
			fmt.Errorf("gateway: no such container %q", id))
		return
	}
	writeJSON(w, http.StatusOK, stats)
}
