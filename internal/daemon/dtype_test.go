package daemon

import (
	"encoding/json"
	"net/http"
	"testing"
)

// TestUploadDtypeFloat32 pins the wire dtype: an upload with
// dtype=float32 builds a float32 Index, the dataset info reports it, and
// queries flow through the fast path end to end. The upload spells its
// metric and dtype names in mixed case, which the daemon ignores.
func TestUploadDtypeFloat32(t *testing.T) {
	ts := newTestServer(t, Config{})
	pts := testPoints(300)
	rows := make([][]float64, pts.N)
	for i := 0; i < pts.N; i++ {
		rows[i] = append([]float64(nil), pts.Data[i*pts.Dim:(i+1)*pts.Dim]...)
	}
	body, err := json.Marshal(uploadRequest{Metric: "L2", Dtype: "Float32", Points: rows})
	if err != nil {
		t.Fatal(err)
	}
	if code := ts.do(http.MethodPut, "/v1/datasets/f32", body, "application/json", nil); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}

	var info struct {
		Dataset datasetInfo `json:"dataset"`
	}
	if code := ts.get("/v1/datasets/f32", &info); code != http.StatusOK {
		t.Fatalf("info: status %d", code)
	}
	if info.Dataset.Metric != "l2" || info.Dataset.Dtype != "float32" || info.Dataset.N != pts.N {
		t.Fatalf("info = %+v, want metric l2 and dtype float32 with %d points", info.Dataset, pts.N)
	}

	var lr labelsResponse
	if code := ts.get("/v1/datasets/f32/hdbscan?minpts=5&eps=1.0", &lr); code != http.StatusOK {
		t.Fatalf("hdbscan: status %d", code)
	}
	if len(lr.Labels) != pts.N {
		t.Fatalf("hdbscan returned %d labels, want %d", len(lr.Labels), pts.N)
	}
}

// TestUploadDtypeDefaultAndInvalid pins the default (float64, no dtype in
// the info response) and rejection of unknown dtypes.
func TestUploadDtypeDefaultAndInvalid(t *testing.T) {
	ts := newTestServer(t, Config{})
	pts := testPoints(50)
	if code := ts.upload("plain", pts, ""); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	var info struct {
		Dataset datasetInfo `json:"dataset"`
	}
	if code := ts.get("/v1/datasets/plain", &info); code != http.StatusOK {
		t.Fatalf("info: status %d", code)
	}
	if info.Dataset.Dtype != "" {
		t.Fatalf("float64 dataset reports dtype %q, want omitted", info.Dataset.Dtype)
	}

	rows := [][]float64{{0, 0}, {1, 1}}
	body, err := json.Marshal(uploadRequest{Dtype: "float16", Points: rows})
	if err != nil {
		t.Fatal(err)
	}
	if code := ts.do(http.MethodPut, "/v1/datasets/bad", body, "application/json", nil); code != http.StatusBadRequest {
		t.Fatalf("unknown dtype: status %d, want 400", code)
	}
}
