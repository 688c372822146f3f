package main

import (
	"bufio"
	"io"
	"net"
	"strconv"
	"sync"
)

// stubServer is a RESP server that is nothing but a map and a mutex.
// Driven by the identical generator it shows how fast the generator,
// the kernel's loopback path and a trivial server go on this host at
// this moment. That makes it the reference the end-to-end figures are
// divided by (serve.go) and the load generator's ceiling: a store
// workload that comes near half of it would be measuring the benchmark
// itself.
type stubServer struct {
	ln   net.Listener
	mu   sync.Mutex
	data map[string][]byte
	wg   sync.WaitGroup
}

func newStubServer() (*stubServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &stubServer{ln: ln, data: make(map[string][]byte)}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			s.wg.Add(1)
			go s.serve(nc)
		}
	}()
	return s, nil
}

func (s *stubServer) addr() string { return s.ln.Addr().String() }

// close stops accepting and waits for every connection, which ends when
// its client closes; close the clients first.
func (s *stubServer) close() {
	s.ln.Close()
	s.wg.Wait()
}

func (s *stubServer) serve(nc net.Conn) {
	defer s.wg.Done()
	defer nc.Close()
	r, w := bufio.NewReaderSize(nc, 64<<10), bufio.NewWriterSize(nc, 64<<10)
	var args [3][]byte
	for {
		n, err := readStubCommand(r, &args)
		if err != nil {
			return
		}
		s.mu.Lock()
		if n == 3 { // SET key value
			// Overwriting in place keeps the stub from feeding the
			// garbage collector of the process it shares with the store.
			if v, ok := s.data[string(args[1])]; ok && len(v) == len(args[2]) {
				copy(v, args[2])
			} else {
				s.data[string(args[1])] = append([]byte(nil), args[2]...)
			}
			w.WriteString("+OK\r\n")
		} else if v, ok := s.data[string(args[1])]; ok { // GET key
			w.WriteByte('$')
			w.WriteString(strconv.Itoa(len(v)))
			w.WriteString("\r\n")
			w.Write(v)
			w.WriteString("\r\n")
		} else {
			w.WriteString("$-1\r\n")
		}
		s.mu.Unlock()
		// Reply to a whole pipelined burst with one flush.
		if r.Buffered() == 0 {
			if w.Flush() != nil {
				return
			}
		}
	}
}

// readStubCommand reads one "*N $len arg ..." command of two or three
// arguments into args, reusing their backing arrays.
func readStubCommand(r *bufio.Reader, args *[3][]byte) (int, error) {
	n, err := readStubInt(r, '*')
	if err != nil {
		return 0, err
	}
	if n < 2 || n > 3 {
		return 0, errBadReply
	}
	for i := 0; i < n; i++ {
		size, err := readStubInt(r, '$')
		if err != nil {
			return 0, err
		}
		if size < 0 || size > 1<<20 {
			return 0, errBadReply
		}
		if cap(args[i]) < size+2 {
			args[i] = make([]byte, size+2)
		}
		buf := args[i][:size+2]
		if _, err := io.ReadFull(r, buf); err != nil {
			return 0, err
		}
		args[i] = buf[:size]
	}
	return n, nil
}

func readStubInt(r *bufio.Reader, prefix byte) (int, error) {
	line, err := r.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	if len(line) < 4 || line[0] != prefix {
		return 0, errBadReply
	}
	return strconv.Atoi(string(line[1 : len(line)-2]))
}
