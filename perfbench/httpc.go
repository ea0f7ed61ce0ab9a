package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// httpConn is a minimal HTTP/1.1 client over one persistent connection.
// The load generator uses it instead of net/http so that its own cost per
// request is small and fixed: requests are written from pre-encoded bytes
// in one call, and responses are read into a reused buffer.
type httpConn struct {
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

func dialHTTP(addr string) (*httpConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &httpConn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (h *httpConn) Close() error { return h.c.Close() }

// encodeRequest renders a complete HTTP/1.1 request.
func encodeRequest(method, path, contentType, accept string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: perfbench\r\n", method, path)
	if contentType != "" {
		fmt.Fprintf(&b, "Content-Type: %s\r\n", contentType)
	}
	if accept != "" {
		fmt.Fprintf(&b, "Accept: %s\r\n", accept)
	}
	fmt.Fprintf(&b, "Content-Length: %d\r\n\r\n", len(body))
	b.Write(body)
	return b.Bytes()
}

// do sends one pre-encoded request and returns the response status and
// body. The body aliases a buffer reused by the next call.
func (h *httpConn) do(req []byte) (int, []byte, error) {
	if err := h.c.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return 0, nil, err
	}
	if _, err := h.c.Write(req); err != nil {
		return 0, nil, err
	}
	line, err := h.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	length, chunked := -1, false
	for {
		line, err = h.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, value, _ := bytes.Cut(line, []byte(":"))
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(value)); err != nil {
				return 0, nil, fmt.Errorf("bad Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		}
	}
	h.body = h.body[:0]
	switch {
	case chunked:
		for {
			line, err = h.br.ReadSlice('\n')
			if err != nil {
				return 0, nil, err
			}
			n, err := strconv.ParseInt(string(bytes.TrimSpace(line)), 16, 32)
			if err != nil {
				return 0, nil, fmt.Errorf("bad chunk size %q", line)
			}
			if n == 0 {
				if _, err := h.br.Discard(2); err != nil {
					return 0, nil, err
				}
				return status, h.body, nil
			}
			if err := h.readBody(int(n)); err != nil {
				return 0, nil, err
			}
			if _, err := h.br.Discard(2); err != nil {
				return 0, nil, err
			}
		}
	case length >= 0:
		return status, h.body, h.readBody(length)
	default:
		return 0, nil, fmt.Errorf("response has neither Content-Length nor chunked encoding")
	}
}

// readBody appends n body bytes to h.body.
func (h *httpConn) readBody(n int) error {
	start := len(h.body)
	if cap(h.body)-start < n {
		grown := make([]byte, start, start+n)
		copy(grown, h.body)
		h.body = grown
	}
	h.body = h.body[:start+n]
	_, err := io.ReadFull(h.br, h.body[start:])
	return err
}

// get sends a GET and returns a copy of the body, failing on non-200.
func (h *httpConn) get(path string) ([]byte, error) {
	status, body, err := h.do(encodeRequest("GET", path, "", "", nil))
	if err != nil {
		return nil, err
	}
	if status != 200 {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, status, body)
	}
	return append([]byte(nil), body...), nil
}
