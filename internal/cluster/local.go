package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/osp"
)

// LocalNode is a full admission-service node running in-process on real
// loopback TCP: one HTTP listener serves the API and the verdict
// streams upgraded from it (GET /v1/stream). It exists so cluster
// tests, the fault-injection suite, and `ospcluster -spawn` can stand
// up an N-node fleet in one process, with a Kill that emulates
// process death deterministically (connections torn down abruptly, no
// graceful drain) — the thing an exec'd subprocess kill does racily.
type LocalNode struct {
	srv *osp.Server
	hs  *http.Server
	cfg Node

	mu     sync.Mutex
	dead   bool
	httpCh chan error
}

// StartLocalNode boots a node on a fresh loopback port.
func StartLocalNode(cfg osp.ServerConfig) (*LocalNode, error) {
	srv := osp.NewServer(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("cluster: local node listen: %w", err)
	}
	n := &LocalNode{
		srv:    srv,
		hs:     &http.Server{Handler: srv},
		cfg:    Node{BaseURL: "http://" + ln.Addr().String()},
		httpCh: make(chan error, 1),
	}
	go func() { n.httpCh <- n.hs.Serve(ln) }()
	return n, nil
}

// Config returns the node's address for Config.Nodes / ReplaceNode.
func (n *LocalNode) Config() Node { return n.cfg }

// Server exposes the underlying admission server (tests reach the pool
// through it, or serve a raw stream listener from it with ServeStream,
// which Kill and Shutdown then close).
func (n *LocalNode) Server() *osp.Server { return n.srv }

// Kill emulates the node process dying: the listener closes and every
// established connection — HTTP and stream — is torn down immediately,
// mid-frame if one is in flight. No drain, no goodbye. All engine state
// is gone the way a killed process's memory is gone; the node cannot be
// revived (start a fresh LocalNode and ReplaceNode it into the slot).
func (n *LocalNode) Kill() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.dead {
		return
	}
	n.dead = true
	n.hs.Close() //nolint:errcheck // abrupt teardown is the point
	// An already-expired context makes Shutdown skip every grace period:
	// stream connections are force-closed, engines drained in the
	// background where nobody will ever read them.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n.srv.Shutdown(ctx) //nolint:errcheck // dead nodes don't report
	<-n.httpCh
}

// Shutdown is the graceful counterpart for test/CLI cleanup: streams
// quiesce, engines drain, the HTTP server closes.
func (n *LocalNode) Shutdown(ctx context.Context) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.dead {
		return nil
	}
	n.dead = true
	err := n.srv.Shutdown(ctx)
	if herr := n.hs.Shutdown(ctx); herr != nil && !errors.Is(herr, http.ErrServerClosed) && err == nil {
		err = herr
	}
	select {
	case <-n.httpCh:
	case <-time.After(time.Second):
	}
	return err
}
