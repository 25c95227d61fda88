# Runs a bench in a fresh directory where a directory already takes the
# path of its <bench>.metrics.json sidecar, and passes only if the bench
# then exits 1.
#   cmake -DBENCH=<bench binary> -P unwritable_sidecar.cmake
if(NOT BENCH)
  message(FATAL_ERROR "unwritable_sidecar: set -DBENCH=<bench binary>")
endif()

get_filename_component(name "${BENCH}" NAME)
set(dir "${CMAKE_CURRENT_BINARY_DIR}/unwritable_sidecar.${name}")
file(REMOVE_RECURSE "${dir}")
file(MAKE_DIRECTORY "${dir}/${name}.metrics.json")

execute_process(COMMAND ${BENCH}
                WORKING_DIRECTORY "${dir}"
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
file(REMOVE_RECURSE "${dir}")
message("${out}${err}")
if(NOT code STREQUAL "1")
  message(FATAL_ERROR "expected exit 1, got: ${code}")
endif()
