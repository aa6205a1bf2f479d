package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/wal"
)

// serveConfig is the serve.Config cmd/ddosd builds at its flag defaults:
// every field ddosd sets, at the value its flag defaults to, and nothing
// else, so serve's own defaults (including the production ARIMA/NAR
// grids) apply. detectOn mirrors `ddosd -detect`; wrapFit is the
// benchmark's fit-span hook (nil in untraced runs).
func serveConfig(detectOn bool, wrapFit func(serve.FitFunc) serve.FitFunc) serve.Config {
	var det *detect.Config
	if detectOn {
		det = &detect.Config{Trigger: 4, Clear: 1.5, MinRate: 1, EntropyDrop: 0.3, AlertCap: 256}
	}
	return serve.Config{
		Shards:         64,
		Window:         256,
		RefitEvery:     8,
		QueueDepth:     256,
		Seed:           1,
		Spatial:        core.SpatialConfig{Train: nn.TrainConfig{Epochs: 120}},
		TraceCapacity:  64,
		AccuracyWindow: 512,
		MaxBatchBytes:  8 << 20,
		Detect:         det,

		IncrementalRefit: true,
		FullRefitEvery:   8,
		DriftRatio:       4,
		PromoWindow:      64,
		PromoMinSamples:  16,
		PromoMargin:      0.05,

		WrapFit: wrapFit,
	}
}

// host is one in-process ddosd: the WAL, the service and the HTTP server
// wired in cmd/ddosd's boot order.
type host struct {
	wal  *wal.WAL
	svc  *serve.Service
	srv  *http.Server
	url  string
	rs   serve.RecoveryStats
	done chan error
}

// bootHooks lets a traced run observe the boot without changing it.
type bootHooks struct {
	wrapHandler func(http.Handler) http.Handler
	// recovered is called with RecoverWAL's start and end.
	recovered func(start, end time.Time)
}

// boot opens dir as the WAL, recovers the service from it, attaches the
// WAL and serves the handler on a loopback port. It returns once a
// /healthz request answers 200.
func boot(dir, fsync string, cfg serve.Config, hooks bootHooks) (*host, error) {
	policy, err := wal.ParseSyncPolicy(fsync)
	if err != nil {
		return nil, err
	}
	w, err := wal.Open(wal.Options{Dir: dir, Sync: policy})
	if err != nil {
		return nil, fmt.Errorf("open wal: %w", err)
	}
	h := &host{wal: w, svc: serve.New(cfg), done: make(chan error, 1)}
	t0 := time.Now()
	h.rs, err = h.svc.RecoverWAL(w, nil)
	if hooks.recovered != nil {
		hooks.recovered(t0, time.Now())
	}
	if err != nil {
		h.svc.Close()
		w.Close()
		return nil, fmt.Errorf("wal recovery: %w", err)
	}
	h.svc.AttachWAL(w, nil)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.close()
		return nil, err
	}
	handler := h.svc.Handler()
	if hooks.wrapHandler != nil {
		handler = hooks.wrapHandler(handler)
	}
	// ddosd's default connection timeouts.
	h.srv = &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	h.url = "http://" + ln.Addr().String()
	go func() { h.done <- h.srv.Serve(ln) }()

	resp, err := http.Get(h.url + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("/healthz answered %d", resp.StatusCode)
		}
	}
	if err != nil {
		h.shutdown(false)
		return nil, fmt.Errorf("readiness probe: %w", err)
	}
	return h, nil
}

// shutdown stops the server and, like ddosd on SIGTERM, checkpoints the
// WAL before detaching it. It returns how long the checkpoint took.
func (h *host) shutdown(checkpoint bool) (time.Duration, error) {
	var errs []error
	if h.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := h.srv.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("http shutdown: %w", err))
		}
		cancel()
		if err := <-h.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	var took time.Duration
	if checkpoint {
		t0 := time.Now()
		if err := h.svc.CheckpointWAL(); err != nil {
			errs = append(errs, fmt.Errorf("final checkpoint: %w", err))
		}
		took = time.Since(t0)
	}
	if err := h.close(); err != nil {
		errs = append(errs, err)
	}
	return took, errors.Join(errs...)
}

// close detaches and closes the WAL and stops the service.
func (h *host) close() error {
	h.svc.DetachWAL()
	h.svc.Close()
	if err := h.wal.Close(); err != nil {
		return fmt.Errorf("close wal: %w", err)
	}
	return nil
}
