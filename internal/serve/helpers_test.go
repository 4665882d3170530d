package serve

import "spatial/api"

// testReq builds a request in the wire form.
func testReq(src string, level api.Level, entry string, args ...int64) Request {
	return Request{Program: api.Program{Source: src, Level: level}, Entry: entry, Args: args}
}
