//go:build !purego

package mhd

const puregoBuild = false
