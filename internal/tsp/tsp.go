package tsp

import (
	"ipsa/internal/pkt"
	"ipsa/internal/template"
)

// ResolveSRv6IDs finds the header instances the SRv6 primitives act on.
func ResolveSRv6IDs(cfg *template.Config) (srh, ipv6 pkt.HeaderID) {
	srh, ipv6 = pkt.InvalidHeader, pkt.InvalidHeader
	if h := cfg.HeaderByName("srh"); h != nil {
		srh = h.ID
	}
	if h := cfg.HeaderByName("ipv6"); h != nil {
		ipv6 = h.ID
	}
	return srh, ipv6
}
