package main

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"miras/internal/httpapi"
	"miras/internal/loadgen"
	"miras/internal/router"
)

// listener is one httpapi server behind a loopback TCP socket.
type listener struct {
	url string
	srv *http.Server
	ln  net.Listener
}

// netHop measures what one loopback TCP hop adds to a request: the median
// latency of a one-worker closed loop with the hop on a real socket, minus
// the same loop with the hop in-process. For serve-hot-mixed the hop is
// client to server; for serve-fleet it is router to shard (the client still
// calls the router in-process). Every end-to-end serving number in this
// benchmark is in-process; this row is the committed size of what they omit.
func netHop(cfg runConfig, spec serveSpec, d time.Duration) (hopUs float64, err error) {
	spec.sessions = 4
	off := newTracer(0)
	tcp, err := newServeRig(cfg, spec, off)
	if err != nil {
		return 0, err
	}
	inproc, err := newServeRig(cfg, spec, off)
	if err != nil {
		return 0, err
	}

	var wg sync.WaitGroup
	var listeners []*listener
	listen := func() (*listener, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		l := &listener{url: "http://" + ln.Addr().String(), ln: ln, srv: &http.Server{}}
		listeners = append(listeners, l)
		return l, nil
	}
	serve := func(l *listener, h http.Handler) {
		l.srv.Handler = h
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = l.srv.Serve(l.ln) // returns ErrServerClosed on Close
		}()
	}
	// One connection, as one closed-loop client would hold.
	wire := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	defer func() {
		wire.CloseIdleConnections()
		for _, l := range listeners {
			l.srv.Close()
			l.ln.Close()
		}
		wg.Wait()
	}()

	if !spec.fleet {
		l, err := listen()
		if err != nil {
			return 0, err
		}
		h := httpapi.NewServer().Handler()
		serve(l, h)
		tcp.top, tcp.base = wire, l.url
		inproc.top, inproc.base = loadgen.NewHandlerTransport(h), l.url
	} else {
		var members []string
		for i := 0; i < 2; i++ {
			l, err := listen()
			if err != nil {
				return 0, err
			}
			members = append(members, l.url)
		}
		fleet := loadgen.NewFleetTransport()
		for i, m := range members {
			h := httpapi.NewServer(httpapi.WithShardTopology(m, members)).Handler()
			serve(listeners[i], h)
			fleet.Register(m, h)
		}
		overTCP, err := router.New(members, router.WithClient(&http.Client{Transport: wire}))
		if err != nil {
			return 0, err
		}
		direct, err := router.New(members, router.WithClient(&http.Client{Transport: fleet}))
		if err != nil {
			return 0, err
		}
		tcp.top = loadgen.NewHandlerTransport(overTCP.Handler())
		inproc.top = loadgen.NewHandlerTransport(direct.Handler())
	}
	if err := inproc.populate(); err != nil {
		return 0, err
	}
	tcp.ids = inproc.ids

	near := inproc.closed(cfg.Seed*100+8, 1, d)
	far := tcp.closed(cfg.Seed*100+7, 1, d)
	for _, s := range append(near, far...) {
		if !s.ok {
			return 0, fmt.Errorf("nethttp probe: a %s request failed", opNames[s.op.Kind])
		}
	}
	if len(near) == 0 || len(far) == 0 {
		return 0, fmt.Errorf("nethttp probe: no request completed")
	}
	return p50Us(far) - p50Us(near), nil
}
