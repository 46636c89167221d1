"""Geometry kernel tour: ray casting, polygon clipping, bounded Voronoi cells.

Casts a fan of rays inside an L-shaped room, clips the room to a measurement
box, and partitions the room between four pedestrians.
"""

import numpy as np

from crowdtcn.geometry import (
    bounded_voronoi,
    first_hits,
    point_in_polygon,
    polygon_area,
    polygon_clip,
)

room = [(0.0, 0.0), (8.0, 0.0), (8.0, 3.0), (3.0, 3.0), (3.0, 6.0), (0.0, 6.0)]
walls = np.array([(room[i], room[(i + 1) % len(room)]) for i in range(len(room))])
print(f"L-shaped room, area {polygon_area(room):.1f} m^2, {len(walls)} walls")

origin = np.array([1.5, 1.5])
print(f"\nray fan from {origin.tolist()}:")
degs = np.arange(0, 360, 45)
dirs = np.stack([np.cos(np.radians(degs)), np.sin(np.radians(degs))], axis=-1)
points, indices = first_hits(origin, dirs, walls[:, 0], walls[:, 1])  # all rays at once
assert (indices >= 0).all(), "closed room, every ray must hit"
for deg, point, idx in zip(degs, points, indices):
    dist = np.linalg.norm(point - origin)
    print(f"  {deg:3d} deg -> wall {idx} at ({point[0]:5.2f}, {point[1]:5.2f}), {dist:.2f} m")

box = [(2.0, 1.0), (5.0, 1.0), (5.0, 4.0), (2.0, 4.0)]
inter = polygon_clip(room, box)  # the clip polygon must be convex
print(f"\nmeasurement box area {polygon_area(box):.1f} m^2, "
      f"inside the room: {polygon_area(inter):.2f} m^2")

sites = np.array([[1.0, 1.0], [2.5, 2.0], [1.0, 4.5], [6.0, 1.5]])
cells = bounded_voronoi(sites, room)  # one padded table, row i for site i
print("\nVoronoi cells bounded by the room:")
for i in np.flatnonzero(cells.counts):
    inside = point_in_polygon(sites[i], cells.polygons[i, : cells.counts[i]])
    print(f"  pedestrian {i} owns {cells.areas[i]:5.2f} m^2 (site inside: {inside})")
print(f"  cells cover {cells.areas.sum():.2f} m^2 of {polygon_area(room):.2f} m^2")
