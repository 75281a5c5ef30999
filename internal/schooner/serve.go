package schooner

import (
	"sync"

	"npss/internal/vclock"
	"npss/internal/wire"
)

// handler answers one request read off a connection. The serving loop
// sends the reply with the request's Seq and reads the next request. A
// nil reply ends the conversation: the handler answered last itself
// (lastReply), or took the connection over.
type handler func(conn wire.Conn, req *wire.Message) *wire.Message

// lastReply sends resp as the answer to req and ends the conversation.
func lastReply(conn wire.Conn, req, resp *wire.Message) *wire.Message {
	resp.Seq = req.Seq
	_ = conn.Send(resp)
	return nil
}

// connSet is the accept-and-serve loop of a Manager, or of a Server and
// the procedure processes it spawned, and the set of connections they
// serve: closing it ends every conversation, so its owner leaves no
// goroutine behind when it stops. Each connection is served on a
// goroutine of its own, one request at a time: replies leave in request
// order and the connection has one writer.
type connSet struct {
	mu     sync.Mutex
	open   map[wire.Conn]struct{}
	closed bool
}

// accept serves l on clock c until l is closed: site+".acceptLoop"
// accepts, and one site+".serve" goroutine per connection runs the
// handler that open makes for it. open also returns what to run once
// that connection's conversation is over, or nil.
func (s *connSet) accept(c vclock.Clock, site string, l Listener, open func() (handler, func())) {
	serveSite := site + ".serve"
	c.Go(site+".acceptLoop", func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			if !s.add(conn) {
				conn.Close()
				continue
			}
			handle, end := open()
			c.Go(serveSite, func() { s.serve(conn, handle, end) })
		}
	})
}

func (s *connSet) add(conn wire.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if s.open == nil {
		s.open = make(map[wire.Conn]struct{})
	}
	s.open[conn] = struct{}{}
	return true
}

func (s *connSet) serve(conn wire.Conn, handle handler, end func()) {
	defer func() {
		if end != nil {
			end()
		}
		conn.Close()
		s.mu.Lock()
		delete(s.open, conn)
		s.mu.Unlock()
	}()
	for {
		req, err := conn.Recv()
		if err != nil {
			return
		}
		resp := handle(conn, req)
		if resp == nil {
			return
		}
		resp.Seq = req.Seq
		if err := conn.Send(resp); err != nil {
			return
		}
	}
}

// close closes every connection served, and every one accepted later,
// so each serving goroutine returns. Closing the listeners is the
// owner's part.
func (s *connSet) close() {
	s.mu.Lock()
	s.closed = true
	open := s.open
	s.open = nil
	s.mu.Unlock()
	for conn := range open {
		conn.Close()
	}
}
