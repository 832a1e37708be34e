package faas

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gowren/internal/cos"
	"gowren/internal/runtime"
	"gowren/internal/vclock"
)

// newHTTPEnv builds a controller on the REAL clock (sockets cannot block on
// virtual time) with one action that sleeps briefly.
func newHTTPEnv(t *testing.T) (*Controller, *httptest.Server) {
	t.Helper()
	clk := vclock.NewScaled(1)
	reg := runtime.NewRegistry()
	if err := reg.Publish(runtime.NewImage(runtime.DefaultImage, 1)); err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(Config{
		Clock:         clk,
		Registry:      reg,
		Storage:       cos.NewStore(),
		AdmitOverhead: 100 * time.Microsecond,
		ColdStartBoot: time.Millisecond,
		WarmStart:     100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = ctrl.CreateAction(ActionSpec{
		Name:  "echo",
		Image: runtime.DefaultImage,
		Handler: func(_ *runtime.Ctx, params []byte) ([]byte, error) {
			return params, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(ctrl.Handler())
	t.Cleanup(srv.Close)
	return ctrl, srv
}

func TestHTTPInvokeAndFetchActivation(t *testing.T) {
	ctrl, srv := newHTTPEnv(t)
	resp, err := http.Post(srv.URL+"/api/v1/actions/echo/invoke", "application/json", bytes.NewReader([]byte(`{"x":1}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", resp.StatusCode)
	}
	var out struct {
		ActivationID string `json:"activationId"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.ActivationID == "" {
		t.Fatal("missing activation id")
	}

	// Poll for completion over HTTP.
	deadline := time.Now().Add(5 * time.Second)
	for {
		recResp, err := http.Get(srv.URL + "/api/v1/activations/" + out.ActivationID)
		if err != nil {
			t.Fatal(err)
		}
		var rec Activation
		if err := json.NewDecoder(recResp.Body).Decode(&rec); err != nil {
			t.Fatal(err)
		}
		recResp.Body.Close()
		if rec.Done() {
			if !rec.OK || string(rec.Result) != `{"x":1}` {
				t.Fatalf("activation = %+v", rec)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("activation never finished")
		}
		time.Sleep(time.Millisecond)
	}
	_ = ctrl
}

func TestHTTPInvokeUnknownAction(t *testing.T) {
	_, srv := newHTTPEnv(t)
	resp, err := http.Post(srv.URL+"/api/v1/actions/ghost/invoke", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

// TestHTTPThrottleIs429 checks that every admission rejection reaches the
// socket as 429 with its own error text: the concurrency throttle, a tenant
// over its rate quota, and an invocation shed after its admission deadline.
// In each case the first invocation is accepted and holds the platform's
// only slot; the second is the one rejected.
func TestHTTPThrottleIs429(t *testing.T) {
	cases := []struct {
		name      string
		admission *AdmissionConfig
		want      error
	}{
		{"throttled", nil, ErrThrottled},
		// One token, refilled at 1/s: the second call would owe ~1 s,
		// past its 50 ms admission deadline.
		{"over quota", &AdmissionConfig{Default: TenantQuota{Rate: 1, Burst: 1}, MaxQueueDelay: 50 * time.Millisecond}, ErrQuotaExceeded},
		// Queued behind the blocked first call until the deadline expires.
		{"shed", &AdmissionConfig{MaxQueueDelay: 20 * time.Millisecond}, ErrShed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := runtime.NewRegistry()
			if err := reg.Publish(runtime.NewImage(runtime.DefaultImage, 1)); err != nil {
				t.Fatal(err)
			}
			ctrl, err := New(Config{
				Clock:         vclock.NewScaled(1),
				Registry:      reg,
				Storage:       cos.NewStore(),
				MaxConcurrent: 1,
				Admission:     tc.admission,
				AdmitOverhead: 100 * time.Microsecond,
				ColdStartBoot: time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			block := make(chan struct{})
			err = ctrl.CreateAction(ActionSpec{
				Name:  "slow",
				Image: runtime.DefaultImage,
				Handler: func(_ *runtime.Ctx, _ []byte) ([]byte, error) {
					<-block
					return nil, nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(ctrl.Handler())
			defer srv.Close()
			defer close(block)

			first, err := http.Post(srv.URL+"/api/v1/actions/slow/invoke", "application/json", nil)
			if err != nil {
				t.Fatal(err)
			}
			first.Body.Close()
			if first.StatusCode != http.StatusAccepted {
				t.Fatalf("first invoke status = %d", first.StatusCode)
			}
			second, err := http.Post(srv.URL+"/api/v1/actions/slow/invoke", "application/json", nil)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(second.Body)
			second.Body.Close()
			if second.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("second invoke status = %d, want 429 (body %q)", second.StatusCode, body)
			}
			if !strings.Contains(string(body), tc.want.Error()) {
				t.Fatalf("second invoke body = %q, want it to carry %q", body, tc.want)
			}
		})
	}
}

func TestHTTPListActionsAndActivations(t *testing.T) {
	_, srv := newHTTPEnv(t)
	resp, err := http.Get(srv.URL + "/api/v1/actions")
	if err != nil {
		t.Fatal(err)
	}
	var actions []string
	if err := json.NewDecoder(resp.Body).Decode(&actions); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(actions) != 1 || actions[0] != "echo" {
		t.Fatalf("actions = %v", actions)
	}

	for i := 0; i < 3; i++ {
		r, err := http.Post(srv.URL+"/api/v1/actions/echo/invoke", "application/json", bytes.NewReader([]byte(`1`)))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}
	// Wait until all are done, via the filtered listing.
	deadline := time.Now().Add(5 * time.Second)
	for {
		r, err := http.Get(srv.URL + "/api/v1/activations?action=echo&done=true")
		if err != nil {
			t.Fatal(err)
		}
		var acts []Activation
		if err := json.NewDecoder(r.Body).Decode(&acts); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if len(acts) == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d done activations", len(acts))
		}
		time.Sleep(time.Millisecond)
	}
	// Limit applies.
	r, err := http.Get(srv.URL + "/api/v1/activations?limit=2")
	if err != nil {
		t.Fatal(err)
	}
	var acts []Activation
	if err := json.NewDecoder(r.Body).Decode(&acts); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if len(acts) != 2 {
		t.Fatalf("limited listing = %d", len(acts))
	}
	// Bad limit rejected.
	r, err = http.Get(srv.URL + "/api/v1/activations?limit=abc")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad limit status = %d", r.StatusCode)
	}
	// Unknown activation is 404.
	r, err = http.Get(srv.URL + "/api/v1/activations/act-999999")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown activation status = %d", r.StatusCode)
	}
}

func TestHTTPDeleteAction(t *testing.T) {
	_, srv := newHTTPEnv(t)
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/api/v1/actions/echo", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status = %d", resp.StatusCode)
	}
	// Second delete is a 404.
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete status = %d", resp2.StatusCode)
	}
}
