"""Cold-start probe: import ofonet and resolve one instance, then exit.

The benchmark times this script in fresh interpreters for ``setup_s``:
interpreter start, ``import ofonet``, parsing the config and assembling
the plant with its Schur check and sensitivity (which also pays the
one-time BLAS thread start-up).

    python3 perfbench/setup_probe.py SRC_DIR CONFIG
"""

import json
import sys


def main(src: str, config: str) -> int:
    sys.path.insert(0, src)
    from ofonet import plant, powergrid

    with open(config, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if "grid" in data:
        powergrid.assemble_plant(powergrid.spec_from_dict(data["grid"]))
    else:
        plant.compute_sensitivity(plant.plant_from_dict(data["plant"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
