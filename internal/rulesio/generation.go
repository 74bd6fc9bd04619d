package rulesio

import (
	"crypto/sha256"
	"encoding/hex"
)

// Generation identity. A rule-set generation is content-addressed: its
// id is the hash of the canonical wire bytes Export produces. Because
// Export is deterministic (attribute names and values in rule order,
// no maps) and Import carries measures through verbatim, re-importing
// an exported file on another node and re-exporting it yields the same
// bytes — so coordinator and workers agree on a generation's identity
// without any out-of-band version registry. The ermcluster replication
// path and erminerd's ETag headers are built on this equality; the
// round-trip is pinned by TestGenerationHashRoundTrip.

// Hash returns the generation id of a wire-format rule file: the
// lowercase-hex SHA-256 of its exact bytes, prefixed "sha256:". Two
// files name the same generation iff their bytes match; pass Export
// output (the canonical form) when comparing across nodes.
func Hash(data []byte) string {
	sum := sha256.Sum256(data)
	return "sha256:" + hex.EncodeToString(sum[:])
}
