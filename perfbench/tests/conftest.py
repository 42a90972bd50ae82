import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import env  # noqa: E402

env.pin_threads()
env.use_checkout_package()
