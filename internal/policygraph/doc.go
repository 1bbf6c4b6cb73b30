// Package policygraph implements location policy graphs (paper §2.1):
// undirected graphs whose nodes are the possible locations (grid cell IDs)
// and whose edges are required indistinguishability constraints between two
// locations. It provides the graph algorithms the PGLP mechanisms need
// (shortest-path distance, connected components) and the generators for
// every policy graph the paper demonstrates (G1, G2, Ga, Gb, Gc and the
// random policy graphs of Fig. 5).
package policygraph
