package load

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
)

// Client is a minimal pipelining RESP2 client: commands are buffered
// until Flush and replies are read back in order. It reuses its buffers,
// so a reply's bytes stay valid only until the next Read.
type Client struct {
	nc  net.Conn
	w   *bufio.Writer
	r   *bufio.Reader
	buf []byte
}

// Dial connects to a RESP server.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{
		nc: nc,
		w:  bufio.NewWriterSize(nc, 64<<10),
		r:  bufio.NewReaderSize(nc, 64<<10),
	}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.nc.Close() }

// Set buffers SET key val.
func (c *Client) Set(key, val []byte) {
	c.w.WriteString("*3\r\n$3\r\nSET\r\n")
	c.bulk(key)
	c.bulk(val)
}

// Get buffers GET key.
func (c *Client) Get(key []byte) {
	c.w.WriteString("*2\r\n$3\r\nGET\r\n")
	c.bulk(key)
}

// Command buffers an arbitrary command.
func (c *Client) Command(args ...string) {
	c.w.WriteByte('*')
	c.w.WriteString(strconv.Itoa(len(args)))
	c.w.WriteString("\r\n")
	for _, a := range args {
		c.bulk([]byte(a))
	}
}

func (c *Client) bulk(b []byte) {
	var n [20]byte
	c.w.WriteByte('$')
	c.w.Write(strconv.AppendInt(n[:0], int64(len(b)), 10))
	c.w.WriteString("\r\n")
	c.w.Write(b)
	c.w.WriteString("\r\n")
}

// Flush sends the buffered commands.
func (c *Client) Flush() error { return c.w.Flush() }

// Kind is the type of a reply.
type Kind byte

// Reply kinds.
const (
	Simple  Kind = '+'
	Error   Kind = '-'
	Integer Kind = ':'
	Bulk    Kind = '$'
	Nil     Kind = 0 // the null bulk string
)

// ErrProtocol marks a reply the client cannot parse.
var ErrProtocol = errors.New("resp protocol error")

// Read returns the next reply's kind and payload.
func (c *Client) Read() (Kind, []byte, error) {
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 3 || line[len(line)-2] != '\r' {
		return 0, nil, fmt.Errorf("%w: bad line %q", ErrProtocol, line)
	}
	body := line[1 : len(line)-2]
	switch k := Kind(line[0]); k {
	case Simple, Error, Integer:
		return k, body, nil
	case Bulk:
		n, err := strconv.Atoi(string(body))
		if err != nil || n < -1 {
			return 0, nil, fmt.Errorf("%w: bad bulk length %q", ErrProtocol, body)
		}
		if n == -1 {
			return Nil, nil, nil
		}
		if cap(c.buf) < n+2 {
			c.buf = make([]byte, n+2)
		}
		b := c.buf[:n+2]
		if _, err := io.ReadFull(c.r, b); err != nil {
			return 0, nil, err
		}
		if b[n] != '\r' || b[n+1] != '\n' {
			return 0, nil, fmt.Errorf("%w: bulk not terminated", ErrProtocol)
		}
		return Bulk, b[:n], nil
	default:
		return 0, nil, fmt.Errorf("%w: unexpected reply type %q", ErrProtocol, line[0])
	}
}

// Info runs INFO and returns its integer fields.
func (c *Client) Info() (map[string]int64, error) {
	c.Command("INFO")
	if err := c.Flush(); err != nil {
		return nil, err
	}
	k, body, err := c.Read()
	if err != nil {
		return nil, err
	}
	if k != Bulk {
		return nil, fmt.Errorf("%w: INFO replied %c %q", ErrProtocol, k, body)
	}
	return parseInfo(body), nil
}

func parseInfo(body []byte) map[string]int64 {
	out := make(map[string]int64)
	for len(body) > 0 {
		var line []byte
		line, body, _ = bytes.Cut(body, []byte("\n"))
		name, val, _ := bytes.Cut(bytes.TrimSuffix(line, []byte("\r")), []byte(":"))
		if n, err := strconv.ParseInt(string(val), 10, 64); err == nil {
			out[string(name)] = n
		}
	}
	return out
}
