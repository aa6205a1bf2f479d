package cluster

// Multi-node integration tests: each test boots a full in-process
// cluster — per node a real serve.Service, its own WAL directory, a
// cluster Node, and an httptest listener serving the routed handler —
// and drives it over real HTTP. Replication is driven synchronously via
// Node.Replicate (the poll loop stays off) so every test is
// deterministic.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/astopo"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/wal"
)

func clusterServeConfig() serve.Config {
	return serve.Config{
		Shards:      4,
		Window:      64,
		MinWindow:   6,
		MinSTWindow: 1 << 20,
		RefitEvery:  4,
		QueueDepth:  64,
		BatchSize:   8,
		Seed:        7,
		Temporal:    core.TemporalConfig{MaxP: 1, MaxQ: 1},
		Spatial: core.SpatialConfig{
			Delays: []int{2},
			Hidden: []int{2},
			Train:  nn.TrainConfig{Epochs: 10},
		},
	}
}

// noRefit pushes the refit trigger out of reach so store state stays a
// pure function of the applied records.
func noRefit(cfg serve.Config) serve.Config {
	cfg.RefitEvery = 1 << 30
	return cfg
}

type testNode struct {
	svc  *serve.Service
	wal  *wal.WAL
	node *Node
	srv  *httptest.Server
}

// startTestCluster boots n nodes named n1..nN. Listeners come up first
// (member URLs must be known before the ring is built), each parked on a
// swappable handler that 503s until the node behind it exists.
func startTestCluster(t testing.TB, n int, route string, cfg serve.Config) []*testNode {
	t.Helper()
	nodes := make([]*testNode, n)
	handlers := make([]*atomic.Pointer[http.Handler], n)
	peers := make([]Member, n)
	for i := range nodes {
		p := new(atomic.Pointer[http.Handler])
		handlers[i] = p
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h := p.Load()
			if h == nil {
				http.Error(w, "booting", http.StatusServiceUnavailable)
				return
			}
			(*h).ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		peers[i] = Member{ID: fmt.Sprintf("n%d", i+1), URL: srv.URL}
		nodes[i] = &testNode{srv: srv}
	}
	for i := range nodes {
		svc := serve.New(cfg)
		t.Cleanup(svc.Close)
		w, err := wal.Open(wal.Options{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		svc.AttachWAL(w, nil)
		node, err := NewNode(svc, w, Config{Self: peers[i].ID, Peers: peers, Route: route})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Close)
		h := node.Handler(svc.Handler())
		handlers[i].Store(&h)
		nodes[i].svc, nodes[i].wal, nodes[i].node = svc, w, node
	}
	return nodes
}

// mkClusterAttacks builds n chronological attacks per target across the
// given targets, round-robin interleaved so every batch mixes owners.
func mkClusterAttacks(targets []astopo.AS, perTarget int) []trace.Attack {
	t0 := time.Date(2012, 8, 1, 0, 0, 0, 0, time.UTC)
	var out []trace.Attack
	id := 0
	for i := 0; i < perTarget; i++ {
		for _, as := range targets {
			id++
			out = append(out, trace.Attack{
				ID:          id,
				Family:      "DirtJumper",
				Start:       t0.Add(time.Duration(i) * 3 * time.Hour),
				DurationSec: float64(600 + 60*(i%5)),
				TargetIP:    astopo.IPv4(uint32(as)<<8 | uint32(i)),
				TargetAS:    as,
				Bots:        make([]astopo.IPv4, 3+i%5),
			})
		}
	}
	return out
}

func encodeBinaryBatch(t testing.TB, recs []trace.Attack) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := trace.NewBatchEncoder(&buf)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// postBatch sends one binary batch with a redirect-capable client
// (bytes.Reader bodies replay across 307) and returns the merged result.
func postBatch(t testing.TB, client *http.Client, url string, body []byte) serve.IngestResult {
	t.Helper()
	resp, err := client.Post(url+"/ingest", trace.BatchContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("/ingest: HTTP %d: %s", resp.StatusCode, b)
	}
	var res serve.IngestResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return res
}

// storeImage serializes a node's store restricted to targets the keep
// filter admits, since-refit zeroed (it moves with refit timing, and the
// replica intentionally lags it).
func storeImage(t testing.TB, svc *serve.Service, keep func(astopo.AS) bool) []byte {
	t.Helper()
	cp := svc.Store().Checkpoint()
	kept := cp[:0]
	for i := range cp {
		if keep == nil || keep(cp[i].AS) {
			c := cp[i]
			c.SinceRefit = 0
			kept = append(kept, c)
		}
	}
	buf, err := json.Marshal(kept)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// replicateToZero drives synchronous replication passes on every node
// until all report zero lag.
func replicateToZero(t testing.TB, nodes []*testNode) {
	t.Helper()
	for pass := 0; pass < 10; pass++ {
		lag := 0
		for _, tn := range nodes {
			lag += tn.node.Replicate()
		}
		if lag == 0 {
			return
		}
	}
	t.Fatal("replication did not converge to zero lag")
}

var testTargets = []astopo.AS{64512, 64513, 64514, 64515, 64516, 64517, 64518, 64519}

// splitByOwner partitions targets between the two nodes of a 2-node ring.
func splitByOwner(ring *Ring, targets []astopo.AS) map[string][]astopo.AS {
	out := make(map[string][]astopo.AS)
	for _, as := range targets {
		o := ring.Owner(as)
		out[o.ID] = append(out[o.ID], as)
	}
	return out
}

// TestClusterReplicationEquivalence is the tentpole data-plane check:
// drive mixed-owner batches through one node's router, tail the sealed
// WAL segments both ways, and require every follower's replica of a
// partition to be byte-identical to the owner's store for it.
func TestClusterReplicationEquivalence(t *testing.T) {
	nodes := startTestCluster(t, 2, RouteProxy, noRefit(clusterServeConfig()))
	ring := nodes[0].node.Ring()
	byOwner := splitByOwner(ring, testTargets)
	if len(byOwner["n1"]) == 0 || len(byOwner["n2"]) == 0 {
		t.Fatalf("degenerate split %v: pick targets that land on both nodes", byOwner)
	}

	recs := mkClusterAttacks(testTargets, 12)
	client := nodes[0].srv.Client()
	total := 0
	for i := 0; i < len(recs); i += 16 {
		end := min(i+16, len(recs))
		res := postBatch(t, client, nodes[0].srv.URL, encodeBinaryBatch(t, recs[i:end]))
		total += res.Ingested
	}
	if total != len(recs) {
		t.Fatalf("ingested %d of %d records", total, len(recs))
	}
	replicateToZero(t, nodes)

	for i, tn := range nodes {
		peer := nodes[1-i]
		owned := func(as astopo.AS) bool { return ring.Owner(as).ID == tn.node.Self().ID }
		ownerImg := storeImage(t, tn.svc, owned)
		replicaImg := storeImage(t, peer.svc, owned)
		if len(ownerImg) <= 2 {
			t.Fatalf("node %s owns nothing", tn.node.Self().ID)
		}
		if !bytes.Equal(ownerImg, replicaImg) {
			t.Errorf("follower of %s diverged from owner:\nowner   %s\nreplica %s",
				tn.node.Self().ID, ownerImg, replicaImg)
		}
	}

	// The sealed log is idempotent: a second full pass must change nothing
	// (every frame deduplicates).
	before := storeImage(t, nodes[1].svc, nil)
	replicateToZero(t, nodes)
	if got := storeImage(t, nodes[1].svc, nil); !bytes.Equal(before, got) {
		t.Error("re-running replication changed the store; shipped frames are not idempotent")
	}
}

// TestClusterCrossRouteEquivalence pins the acceptance criterion that
// routing mode is invisible to state: the same record stream via
// split-proxy, via 307 redirects, and directly on the owners must leave
// every node with an identical store checkpoint.
func TestClusterCrossRouteEquivalence(t *testing.T) {
	recs := mkClusterAttacks(testTargets, 12)
	images := make(map[string][2][]byte)

	for _, mode := range []string{"proxy", "redirect", "direct"} {
		route := RouteProxy
		if mode == "redirect" {
			route = RouteRedirect
		}
		nodes := startTestCluster(t, 2, route, noRefit(clusterServeConfig()))
		ring := nodes[0].node.Ring()
		var redirects atomic.Int64
		client := &http.Client{
			CheckRedirect: func(req *http.Request, via []*http.Request) error {
				redirects.Add(1)
				return nil
			},
		}
		switch mode {
		case "proxy":
			// Mixed-owner batches through one front node.
			for i := 0; i < len(recs); i += 16 {
				end := min(i+16, len(recs))
				postBatch(t, client, nodes[0].srv.URL, encodeBinaryBatch(t, recs[i:end]))
			}
		case "redirect", "direct":
			// Single-owner batches; redirect posts each to the non-owner so
			// every request bounces, direct posts straight to the owner.
			byOwner := make(map[string][]trace.Attack)
			for _, a := range recs {
				id := ring.Owner(a.TargetAS).ID
				byOwner[id] = append(byOwner[id], a)
			}
			for i, tn := range nodes {
				part := byOwner[tn.node.Self().ID]
				url := tn.srv.URL
				if mode == "redirect" {
					url = nodes[1-i].srv.URL
				}
				for j := 0; j < len(part); j += 16 {
					end := min(j+16, len(part))
					postBatch(t, client, url, encodeBinaryBatch(t, part[j:end]))
				}
			}
		}
		if mode == "redirect" && redirects.Load() == 0 {
			t.Fatal("redirect deployment issued no 307s")
		}
		if mode != "redirect" && redirects.Load() != 0 {
			t.Fatalf("%s deployment unexpectedly redirected %d times", mode, redirects.Load())
		}
		images[mode] = [2][]byte{
			storeImage(t, nodes[0].svc, nil),
			storeImage(t, nodes[1].svc, nil),
		}
	}

	for _, mode := range []string{"proxy", "redirect"} {
		for i := range images[mode] {
			if !bytes.Equal(images[mode][i], images["direct"][i]) {
				t.Errorf("node n%d diverges between %s and direct routing", i+1, mode)
			}
		}
	}
}

// TestClusterFailover is the takeover story: load flows through the
// non-owner, replication catches up, the owner dies without ceremony,
// the survivor is promoted over HTTP — and it must hold every acked
// record of the dead node's partition and keep serving /forecast for it.
func TestClusterFailover(t *testing.T) {
	nodes := startTestCluster(t, 2, RouteProxy, clusterServeConfig())
	oldRing := nodes[0].node.Ring()
	byOwner := splitByOwner(oldRing, testTargets)
	if len(byOwner["n1"]) == 0 || len(byOwner["n2"]) == 0 {
		t.Fatalf("degenerate split %v", byOwner)
	}

	recs := mkClusterAttacks(testTargets, 12)
	client := nodes[1].srv.Client()
	acked := 0
	for i := 0; i < len(recs); i += 16 {
		end := min(i+16, len(recs))
		res := postBatch(t, client, nodes[1].srv.URL, encodeBinaryBatch(t, recs[i:end]))
		acked += res.Ingested
	}
	if acked != len(recs) {
		t.Fatalf("acked %d of %d records", acked, len(recs))
	}
	// Sync point: all sealed segments applied before the kill (async
	// shipping cannot promise mid-flight records; acked-and-replicated is
	// the contract smoke verifies too).
	replicateToZero(t, nodes)

	dead, survivor := nodes[0], nodes[1]
	deadOwned := func(as astopo.AS) bool { return oldRing.Owner(as).ID == "n1" }
	want := storeImage(t, dead.svc, deadOwned)

	// kill -9 equivalent: the listener vanishes, nothing checkpoints.
	dead.srv.Close()

	resp, err := http.Post(survivor.srv.URL+"/cluster/promote?dead=n1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: HTTP %d", resp.StatusCode)
	}
	if got := survivor.node.Ring().Size(); got != 1 {
		t.Fatalf("ring size after promotion = %d, want 1", got)
	}
	if survivor.node.Ring().Epoch() == oldRing.Epoch() {
		t.Fatal("ring epoch did not change on promotion")
	}

	// Zero loss: the survivor's replica of the dead partition is
	// byte-identical to what the dead node acked.
	if got := storeImage(t, survivor.svc, deadOwned); !bytes.Equal(got, want) {
		t.Fatalf("promoted follower lost acked records:\nwant %s\ngot  %s", want, got)
	}

	// Forecast continuity: every target the dead node owned now serves
	// from the survivor, locally (a proxy attempt would 502 — the owner is
	// gone).
	for _, as := range byOwner["n1"] {
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp, err := http.Get(fmt.Sprintf("%s/forecast?target=%d", survivor.srv.URL, as))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("forecast for AS%d: HTTP %d after promotion: %s", as, resp.StatusCode, body)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// New ingest for a formerly dead-owned target lands locally.
	extra := mkClusterAttacks(byOwner["n1"][:1], 1)
	extra[0].ID = 1 << 20
	res := postBatch(t, client, survivor.srv.URL, encodeBinaryBatch(t, extra))
	if res.Ingested != 1 {
		t.Fatalf("post-failover ingest = %+v", res)
	}
}

// TestClusterHealthzShowsCluster checks the /healthz surface satellites
// rely on: node identity, ring epoch, and per-peer replication state.
func TestClusterHealthzShowsCluster(t *testing.T) {
	nodes := startTestCluster(t, 2, RouteProxy, noRefit(clusterServeConfig()))
	replicateToZero(t, nodes)
	resp, err := http.Get(nodes[0].srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Cluster *Status `json:"cluster"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Cluster == nil {
		t.Fatal("/healthz has no cluster section")
	}
	if h.Cluster.Node != "n1" || h.Cluster.Members != 2 {
		t.Fatalf("cluster section = %+v", h.Cluster)
	}
	if h.Cluster.RingEpoch != nodes[0].node.Ring().Epoch() {
		t.Fatal("healthz ring epoch disagrees with the ring")
	}
	if len(h.Cluster.Replication) != 1 || h.Cluster.Replication[0].Peer != "n2" {
		t.Fatalf("replication status = %+v", h.Cluster.Replication)
	}
}

// benchCluster builds the 2-in-process-node fixture the routing-overhead
// benchmarks share, plus a cycle of pre-encoded single-owner binary
// batches for a target owned by n2.
func benchCluster(b *testing.B, route string) (nodes []*testNode, bodies [][]byte) {
	cfg := noRefit(clusterServeConfig())
	cfg.MinWindow = 1 << 30 // no model work, isolate routing
	nodes = startTestCluster(b, 2, route, cfg)
	ring := nodes[0].node.Ring()
	var target astopo.AS
	for _, as := range testTargets {
		if ring.Owner(as).ID == "n2" {
			target = as
			break
		}
	}
	if target == 0 {
		b.Fatal("no test target owned by n2")
	}
	const pool, batch = 64, 64
	recs := mkClusterAttacks([]astopo.AS{target}, pool*batch)
	for i := 0; i < pool; i++ {
		bodies = append(bodies, encodeBinaryBatch(b, recs[i*batch:(i+1)*batch]))
	}
	return nodes, bodies
}

// The three routing benchmarks measure the same 64-record binary batch
// landing on its owner: directly, through the non-owner's split-proxy,
// and via a 307 bounce:
//
//	go test -run '^$' -bench ClusterRouting -benchmem ./internal/cluster

func BenchmarkClusterRoutingDirect(b *testing.B) {
	nodes, bodies := benchCluster(b, RouteProxy)
	client := nodes[1].srv.Client()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postBatch(b, client, nodes[1].srv.URL, bodies[i%len(bodies)])
	}
}

func BenchmarkClusterRoutingProxy(b *testing.B) {
	nodes, bodies := benchCluster(b, RouteProxy)
	client := nodes[0].srv.Client()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postBatch(b, client, nodes[0].srv.URL, bodies[i%len(bodies)])
	}
}

func BenchmarkClusterRoutingRedirect(b *testing.B) {
	nodes, bodies := benchCluster(b, RouteRedirect)
	client := nodes[0].srv.Client()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postBatch(b, client, nodes[0].srv.URL, bodies[i%len(bodies)])
	}
}
