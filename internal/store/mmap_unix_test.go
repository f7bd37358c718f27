//go:build (linux || darwin || freebsd || netbsd || openbsd || dragonfly) && (amd64 || arm64 || 386 || arm || riscv64 || loong64 || ppc64le || mips64le || mipsle)

package store

func init() { mapsFiles = true }
