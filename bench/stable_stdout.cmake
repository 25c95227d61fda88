# Runs a bench twice and passes only if both runs exit 0 and print the same
# stdout: a bench's figure text is a function of the code alone, never of
# wall time or thread scheduling.
#   cmake -DBENCH=<bench binary> -P stable_stdout.cmake
if(NOT BENCH)
  message(FATAL_ERROR "stable_stdout: set -DBENCH=<bench binary>")
endif()

foreach(run 1 2)
  execute_process(COMMAND ${BENCH}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE stdout_${run}
                  ERROR_VARIABLE stderr)
  if(run EQUAL 1 OR NOT code STREQUAL "0")
    message("${stdout_${run}}${stderr}")
  endif()
  if(NOT code STREQUAL "0")
    message(FATAL_ERROR "run ${run} of ${BENCH} exited ${code}")
  endif()
endforeach()

if(NOT stdout_1 STREQUAL stdout_2)
  get_filename_component(name "${BENCH}" NAME)
  file(WRITE "${name}.stdout.1" "${stdout_1}")
  file(WRITE "${name}.stdout.2" "${stdout_2}")
  message(FATAL_ERROR "two runs of ${name} printed different stdout; compare "
                      "${name}.stdout.1 and ${name}.stdout.2")
endif()
