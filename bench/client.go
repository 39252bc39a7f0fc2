package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// client is one closed-loop memcached-text connection: it writes a
// request, flushes, and blocks for the whole reply before the caller may
// send the next one.
type client struct {
	nc   net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	line []byte // the last request line, without its terminator (parse replay)
}

func dial(addr string) (*client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &client{nc: nc, r: bufio.NewReaderSize(nc, 16<<10), w: bufio.NewWriterSize(nc, 16<<10)}, nil
}

// deadline bounds every reply wait until t: a wedged server fails the ops
// instead of hanging the run.
func (c *client) deadline(t time.Time) { c.nc.SetDeadline(t) }

func (c *client) close() { c.nc.Close() }

var (
	errMiss  = errors.New("get: key absent")
	crlf     = []byte("\r\n")
	valueTag = []byte("VALUE ")
	endLine  = []byte("END")
	stored   = []byte("STORED")
)

func (c *client) readLine() ([]byte, error) {
	l, err := c.r.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(l, "\r\n"), nil
}

// get fetches key's value into buf. A miss is errMiss: every key the
// workloads read was prefilled.
func (c *client) get(key string, buf []byte) ([]byte, error) {
	c.line = append(append(c.line[:0], "get "...), key...)
	c.w.Write(c.line)
	c.w.Write(crlf)
	if err := c.w.Flush(); err != nil {
		return buf, err
	}
	l, err := c.readLine()
	if err != nil {
		return buf, err
	}
	if bytes.Equal(l, endLine) {
		return buf, errMiss
	}
	// VALUE <key> <flags> <bytes>
	sp := bytes.LastIndexByte(l, ' ')
	if !bytes.HasPrefix(l, valueTag) || sp < 0 {
		return buf, fmt.Errorf("get: unexpected reply %q", l)
	}
	n, err := strconv.Atoi(string(l[sp+1:]))
	if err != nil || n < 0 {
		return buf, fmt.Errorf("get: bad length in %q", l)
	}
	if cap(buf) < n+2 {
		buf = make([]byte, n+2)
	}
	buf = buf[:n+2]
	if _, err := io.ReadFull(c.r, buf); err != nil {
		return buf, err
	}
	if !bytes.Equal(buf[n:], crlf) {
		return buf, fmt.Errorf("get: payload not terminated")
	}
	if l, err = c.readLine(); err != nil {
		return buf, err
	} else if !bytes.Equal(l, endLine) {
		return buf, fmt.Errorf("get: missing END, got %q", l)
	}
	return buf[:n], nil
}

// set stores key=val and waits for STORED.
func (c *client) set(key string, val []byte) error {
	c.line = append(append(c.line[:0], "set "...), key...)
	c.line = append(c.line, " 0 0 "...)
	c.line = strconv.AppendInt(c.line, int64(len(val)), 10)
	c.w.Write(c.line)
	c.w.Write(crlf)
	c.w.Write(val)
	c.w.Write(crlf)
	if err := c.w.Flush(); err != nil {
		return err
	}
	l, err := c.readLine()
	if err != nil {
		return err
	}
	if !bytes.Equal(l, stored) {
		return fmt.Errorf("set: %q", l)
	}
	return nil
}
